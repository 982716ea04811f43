"""The flow-map call contract: inputs reach the evaluator unconverted, and a
call reassigned on the class counts every flow-map call."""

import numpy as np

from pscomp.composition import recursive_family
from pscomp.diagnostics import integrate
from pscomp.flowmap import STRANG_META, FlowMap
from pscomp.problems import ho_drift_flow, ho_kick_flow, s4sim


def _recording_flow(seen):
    def evaluator(x, tau):
        seen.append((x, tau))
        return x

    return FlowMap(evaluator, STRANG_META)


class _Hooked(FlowMap):
    """Counting wrapper in the shape of the benchmark tracer's: it copies the
    wrapped map's attributes and forwards each call through ``hook``."""

    def __init__(self, inner, hook):
        self.__dict__.update(inner.__dict__)
        self.inner = inner
        self.hook = hook

    def __call__(self, state, tau):
        return self.hook(self.inner, state, tau)


def _counting_call(monkeypatch):
    """Reassign ``FlowMap.__call__`` to record each flow map it is called on."""
    calls = []
    original = FlowMap.__call__

    def counted(flow, state, tau):
        calls.append(flow)
        return original(flow, state, tau)

    monkeypatch.setattr(FlowMap, "__call__", counted)
    return calls


def test_call_hands_the_evaluator_its_inputs():
    seen = []
    state = np.array([1.0, 2.0])
    _recording_flow(seen)(state, 0.1)
    (x, tau), = seen
    assert x is state
    assert type(tau) is float and tau == 0.1


def test_entry_points_convert_the_state_once():
    # A tuple (an ODE state) becomes a tuple of Python complex; anything
    # else (a PDE state) a complex array.
    seen = []
    integrate(_recording_flow(seen), [1.0, 2.0], 0.1, 2)
    assert [x.dtype for x, _ in seen] == [np.dtype(complex)] * 2
    assert seen[0][0] is seen[1][0]
    seen.clear()
    integrate(_recording_flow(seen), (1.0, np.float64(2.0)), 0.1, 2)
    assert [[type(v) for v in x] for x, _ in seen] == [[complex, complex]] * 2
    assert seen[0][0] is seen[1][0] and seen[0][0] == (1.0, 2.0)


def test_a_flow_map_keeps_its_evaluator_and_meta():
    def evaluator(x, tau):
        return x

    flow = FlowMap(evaluator, STRANG_META)
    assert flow.func is evaluator
    assert flow.meta is STRANG_META
    assert flow.args == () and flow.keywords == {}


def test_a_reassigned_call_counts_the_22_calls_of_an_s4sim_step(monkeypatch):
    # A real step on a real state runs the pair only: the level, the pair,
    # two s4sim evaluations and their 2 x 9 stages.
    level = recursive_family(s4sim(ho_drift_flow(), ho_kick_flow()), 1).levels[0]
    x = (1.0 + 0j, 0.5 + 0j)
    expected = level(x, 0.3)
    calls = _counting_call(monkeypatch)
    np.testing.assert_array_equal(level(x, 0.3), expected)
    assert len(calls) == 22
    assert calls[0] is level
    monkeypatch.undo()
    assert "__call__" in FlowMap.__dict__
    level(x, 0.3)
    FlowMap(lambda y, tau: y, STRANG_META)(x, 0.3)
    assert len(calls) == 22


def test_a_subclass_calls_through_its_own_call(monkeypatch):
    seen, hooked = [], []
    inner = _recording_flow(seen)

    def hook(flow, state, tau):
        hooked.append(tau)
        return flow(state, tau)

    wrapped = _Hooked(inner, hook)
    assert wrapped.meta is inner.meta
    assert wrapped.inner is inner
    state = np.array([1.0, 2.0])
    assert wrapped(state, 0.25) is state
    assert hooked == [0.25] and seen == [(state, 0.25)]
    # Under a counting call only the wrapped map's call is counted.
    calls = _counting_call(monkeypatch)
    wrapped(state, 0.5)
    assert calls == [inner] and hooked == [0.25, 0.5]
