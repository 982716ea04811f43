"""The flow-map call contract: inputs reach the evaluator unconverted."""

import numpy as np

from pscomp.diagnostics import integrate
from pscomp.flowmap import EXACT_META, FlowMap


def _recording_flow(seen):
    def evaluator(x, tau):
        seen.append((x, tau))
        return x

    return FlowMap(evaluator, EXACT_META)


def test_call_hands_the_evaluator_its_inputs():
    seen = []
    state = np.array([1.0, 2.0])
    _recording_flow(seen)(state, 0.1)
    (x, tau), = seen
    assert x is state
    assert type(tau) is float and tau == 0.1


def test_entry_points_convert_the_state_once():
    seen = []
    integrate(_recording_flow(seen), [1.0, 2.0], 0.1, 2)
    assert [x.dtype for x, _ in seen] == [np.dtype(complex)] * 2
    assert seen[0][0] is seen[1][0]
