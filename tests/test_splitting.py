"""Fourth-order complex splitting: coefficients and measured order."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscomp.bench.run import PROBLEMS
from pscomp.complexlog import analytic_inv_r3
from pscomp.diagnostics import power_law_fit
from pscomp.errors import SingularityError
from pscomp.flowmap import INFINITE_ORDER, STRANG_META, FlowMap
from pscomp.problems import (
    S4SIM_A, S4SIM_B, S4SIM_MAX_ARG, ho_drift_flow, ho_exact, ho_kick_flow,
    kepler_drift_flow, kepler_kick_flow, s4sim, strang,
)
from pscomp.problems.splitting import S4SIM_A_FRACTIONS, S4SIM_B_FRACTIONS


def test_coefficient_sums_exact_rational():
    assert sum(S4SIM_A_FRACTIONS) == Fraction(1)
    (b1_re, b1_im), (b2_re, b2_im), (b3_re, b3_im) = S4SIM_B_FRACTIONS
    # palindrome: b1 and b2 appear twice
    assert 2 * (b1_re + b2_re) + b3_re == Fraction(1)
    assert 2 * (b1_im + b2_im) + b3_im == Fraction(0)


def test_max_argument_is_arccos_four_fifths():
    max_arg = max(abs(cmath.phase(b)) for b in S4SIM_B)
    assert abs(max_arg - math.acos(4.0 / 5.0)) < 1e-12


def test_b_coefficients_have_positive_real_parts():
    assert all(b.real > 0 for b in S4SIM_B)
    assert all(a > 0 for a in S4SIM_A)


def test_strang_builder_matches_oscillator_matrix():
    method = strang(ho_drift_flow(), ho_kick_flow())
    tau = 0.3 + 0.2j
    x = (0.7 + 0j, -1.1 + 0j)
    # D(tau/2) K(tau) D(tau/2) from the closed-form shears of drift and kick
    drift = np.array([[1.0, tau / 2], [0.0, 1.0]])
    kick = np.array([[1.0, 0.0], [-tau, 1.0]])
    assert np.max(np.abs(np.asarray(method(x, tau)) - drift @ kick @ drift @ x)) < 1e-15
    assert method.meta is STRANG_META


def test_palindromic_symmetry_on_oscillator():
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    rng = np.random.default_rng(19)
    for _ in range(10):
        tau = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        roundtrip = method.matrix(-tau) @ method.matrix(tau)
        assert np.max(np.abs(roundtrip - np.eye(2))) < 1e-13


def test_meta():
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    assert method.meta.order == 4
    assert method.meta.pseudo_symmetry_order == INFINITE_ORDER
    assert method.meta.pseudo_symplecticity_order == INFINITE_ORDER
    assert S4SIM_MAX_ARG == pytest.approx(math.acos(0.8))


def test_fourth_order_on_oscillator():
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    taus = 0.2 * 0.5 ** np.arange(6)
    errors = []
    for tau in taus:
        n = round(1.0 / tau)
        mat = np.eye(2, dtype=complex)
        step = method.matrix(tau)
        for _ in range(n):
            mat = step @ mat
        errors.append(np.max(np.abs(mat - ho_exact(1.0))))
    exponent = power_law_fit(taus, errors)[0]
    assert abs(exponent - 4.0) < 0.15


# The stage formulas as they stood when each stage built its whole output
# from a list, with the complex dtype it had on every complex state.
def _listed_ho_drift(x, tau):
    q, p = x
    return np.array([q + tau * p, p], dtype=complex)


def _listed_ho_kick(x, tau):
    q, p = x
    return np.array([q, p - tau * q], dtype=complex)


def _listed_kepler_drift(x, tau):
    q1, q2, p1, p2 = x
    return np.array([q1 + tau * p1, q2 + tau * p2, p1, p2], dtype=complex)


def _listed_kepler_kick(x, tau):
    q1, q2, p1, p2 = x
    factor = tau * analytic_inv_r3(q1 * q1 + q2 * q2)
    return np.array([q1, q2, p1 - factor * q1, p2 - factor * q2], dtype=complex)


_FINITE = st.floats(-4.0, 4.0)
_COMPLEX = st.builds(complex, _FINITE, _FINITE)


@st.composite
def _stage_states(draw, size):
    """A tuple of Python complex, as the entry points build an ODE state:
    complex entries, or real ones built from floats."""
    if draw(st.booleans()):
        return tuple(map(complex, draw(st.lists(_FINITE, min_size=size, max_size=size))))
    return tuple(draw(st.lists(_COMPLEX, min_size=size, max_size=size)))


@pytest.mark.parametrize("stage, listed, size", [
    (ho_drift_flow, _listed_ho_drift, 2), (ho_kick_flow, _listed_ho_kick, 2),
    (kepler_drift_flow, _listed_kepler_drift, 4),
    (kepler_kick_flow, _listed_kepler_kick, 4),
], ids=["ho_drift", "ho_kick", "kepler_drift", "kepler_kick"])
@given(data=st.data())
def test_ode_stages_equal_the_listed_formulas_bit_for_bit(stage, listed, size, data):
    # An ODE stage takes and returns a tuple of Python complex (not numpy
    # scalars); the Fisher and CGL maps keep the complex-array contract.
    x = data.draw(_stage_states(size))
    tau = data.draw(st.one_of(_FINITE, _COMPLEX))
    before = tuple(x)
    try:
        expected = listed(x, tau)
    except (SingularityError, RuntimeWarning) as err:  # 1/r^3 at or near r = 0
        with pytest.raises(type(err)):
            stage()(x, tau)
        return
    y = stage()(x, tau)
    assert type(y) is tuple and len(y) == len(x)
    assert all(type(v) is complex for v in y)
    assert np.array(y).tobytes() == expected.tobytes()
    assert y is not x
    assert x == before and all(type(v) is complex for v in x)


# s4sim in application order, one (part, coefficient) per stage.
_S4SIM_LISTED = (
    ("b", S4SIM_B[0]), ("a", S4SIM_A[0]), ("b", S4SIM_B[1]), ("a", S4SIM_A[1]),
    ("b", S4SIM_B[2]), ("a", S4SIM_A[2]), ("b", S4SIM_B[1]), ("a", S4SIM_A[3]),
    ("b", S4SIM_B[0]),
)


def _listed_s4sim(flow_a, flow_b, x, tau):
    """The palindrome as a loop over its nine stages, each at ``coeff * tau``."""
    flows = {"a": flow_a, "b": flow_b}
    for part, coeff in _S4SIM_LISTED:
        x = flows[part](x, coeff * tau)
    return x


def _step_bits(t):
    return type(t), np.array(t).tobytes()


@pytest.mark.parametrize("problem", ["harmonic", "kepler", "fisher"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_s4sim_makes_nine_stage_calls_at_the_listed_steps(problem, data):
    # The evaluator computes each distinct stage step once; every stage
    # still gets ``coeff * tau`` bit for bit, in palindrome order, and the
    # result equals the listed loop's by bytes (oscillator and Kepler
    # tuples, Fisher arrays at N = 32), at real and complex steps and states.
    row = PROBLEMS[problem]
    _, x0, _, build_a, build_b = row.setup(row.params, 32)
    flow_a, flow_b = build_a(), build_b()
    n = len(x0)
    x = np.asarray(x0) + data.draw(st.floats(-0.05, 0.05)) * np.cos(np.arange(n))
    if data.draw(st.booleans()):
        x = x + 1j * data.draw(st.floats(-0.05, 0.05)) * np.sin(np.arange(n) + 1.0)
    x = tuple(map(complex, x.tolist())) if type(x0) is tuple else x
    tau = data.draw(st.one_of(st.floats(-0.3, 0.3),
                              st.builds(cmath.rect, st.floats(0.0, 0.3),
                                        st.floats(-math.pi, math.pi))))
    calls = []

    def recording(part, flow):
        def stage(y, t):
            calls.append((part, _step_bits(t)))
            return flow(y, t)
        return FlowMap(stage, STRANG_META)

    got = s4sim(recording("a", flow_a), recording("b", flow_b))(x, tau)
    want = _listed_s4sim(flow_a, flow_b, x, tau)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert calls == [(part, _step_bits(coeff * tau)) for part, coeff in _S4SIM_LISTED]
