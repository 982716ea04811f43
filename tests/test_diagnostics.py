"""Fitting machinery, integration harness, Taylor coefficients on a circle
of complex steps, and defect measurements."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pscomp.composition import recursive_family
from pscomp.diagnostics import (
    ROUNDOFF_FLOOR, energy_error_series, envelope_growth, integrate, leading_term, power_law_fit,
    propagate, propagate_stacked, slope_with_floor, step_count, symplecticity_defect,
    taylor_coefficients,
)
from pscomp.errors import DomainError, NonFiniteError, SingularityError, ValidationError
from pscomp.flowmap import STRANG_META, FlowMap
from pscomp.problems import (
    ho_drift_flow, ho_energy, ho_exact, ho_exact_flow, ho_kick_flow, ho_strang_flow,
    kepler_energy, kepler_initial_conditions, kepler_strang_flow, s4sim,
)


def test_power_law_fit_exact_cubic():
    taus = 0.5 ** np.arange(6)
    exponent, coefficient, residual = power_law_fit(taus, taus**3)
    assert abs(exponent - 3.0) < 1e-12
    assert abs(coefficient - 1.0) < 1e-12
    assert residual < 1e-12


def test_power_law_fit_scaled_quadratic():
    taus = 0.5 ** np.arange(5)
    exponent, coefficient, _ = power_law_fit(taus, 5.0 * taus**2)
    assert abs(exponent - 2.0) < 1e-12
    assert abs(coefficient - 5.0) < 1e-11


@pytest.mark.parametrize("p", range(2, 9))
def test_power_law_fit_recovers_synthetic_orders(p):
    taus = 0.8 * 0.5 ** np.arange(6)
    exponent, coefficient, _ = power_law_fit(taus, 2.5e-3 * taus**p)
    assert abs(exponent - p) < 1e-10
    assert abs(coefficient - 2.5e-3) / 2.5e-3 < 1e-10


def test_power_law_fit_validates_input():
    with pytest.raises(DomainError):
        power_law_fit([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(DomainError):
        power_law_fit([0.1, 0.2, -0.3], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        power_law_fit([0.1, 0.2, 0.3], [1.0, 0.0, 3.0])
    with pytest.raises(DomainError, match="equal length"):
        power_law_fit([0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0])


def test_power_law_fit_noninteger_exponent_uses_intercept():
    taus = 0.5 ** np.arange(5)
    exponent, coefficient, _ = power_law_fit(taus, 2.0 * taus**2.5)
    assert abs(exponent - 2.5) < 1e-10
    assert abs(coefficient - 2.0) / 2.0 < 1e-9


#: The circle of complex steps of the ho-table1 preset.
RHO, NODES = 1.0, 32


def test_taylor_coefficients_of_exp_are_inverse_factorials():
    c = taylor_coefficients(np.exp, RHO, NODES)
    # Roundoff in c_k is absolute (about eps * max|exp| / rho^k), so it is
    # bounded relative to c_0 = 1; relative to 1/k! it grows like k!.
    for k in range(13):
        assert abs(c[k] - 1.0 / math.factorial(k)) < 1e-14


def test_taylor_coefficients_of_a_polynomial_are_exact():
    coeffs = np.array([3.0, -2.0, 0.5, 1.0, 4.0, -7.0])  # c_0 .. c_5
    c = taylor_coefficients(lambda t: np.polyval(coeffs[::-1], t), RHO, NODES)
    np.testing.assert_allclose(c[:6], coeffs, rtol=0, atol=1e-14)
    assert np.max(np.abs(c[6:])) < 1e-14


def test_taylor_nodes_are_off_the_axis_and_opposite_in_pairs():
    seen = []
    taylor_coefficients(lambda taus: seen.append(taus) or taus, RHO, NODES)
    nodes = seen[0]
    assert nodes.shape == (NODES,)
    assert np.all(nodes[NODES // 2:] == -nodes[:NODES // 2])
    assert np.min(np.abs(nodes.imag)) > 0.0
    np.testing.assert_allclose(np.abs(nodes), RHO, rtol=1e-15)


def test_leading_term_reads_degree_sign_and_noise():
    c = np.zeros(NODES)
    c[1], c[3], c[4] = 1e-16, -4e-3, 1.0
    assert leading_term(c, RHO) == (3, -4e-3, 1e-16 / 4e-3)
    assert leading_term(np.full(NODES, 1e-16), RHO) is None


def test_leading_term_of_a_matrix_series_reads_its_largest_entry():
    c = np.zeros((NODES, 2, 2), dtype=complex)
    c[5] = [[1e-3, -2e-3 + 1e-9j], [0.0, 5e-4]]
    assert leading_term(c, RHO) == (5, -2e-3, 0.0)


@pytest.mark.parametrize("pair", [
    (1.0, -(1.0 + 1e-15)),
    (1.0 + 1e-15, -1.0),
    # The Kepler level-3 symplecticity pair differed by 5.2e-9 relative
    # when the kick's 1/r^3 went through the complex log.
    (1.0, -(1.0 + 5e-9)),
])
def test_leading_term_sign_of_a_pm_pair_does_not_follow_roundoff(pair):
    # An antisymmetric series has entries c and -c; roundoff decides which
    # has the larger modulus, but the sign comes from the first of the two.
    c = np.zeros((NODES, 2), dtype=complex)
    c[3, 0] = 1e-14
    c[4] = [8.8 * pair[0], 8.8 * pair[1]]
    degree, coefficient, _ = leading_term(c, RHO)
    assert degree == 4
    assert coefficient == pytest.approx(8.8, rel=1e-8)


def test_leading_term_sign_of_a_pair_a_coefficient_roundoff_apart():
    # With 1/r^3 = 1/(z sqrt(z)) the Kepler level-3 symplecticity pair at
    # rho = 0.1 differs by 9.8e-8 relative; it still reads as a +- pair.
    c = np.zeros((NODES, 2), dtype=complex)
    c[4] = [8.8, -8.8 * (1.0 + 1e-7)]
    assert leading_term(c, RHO)[:2] == (4, 8.8 * (1.0 + 1e-7))


def test_leading_term_sign_of_distinct_entries_is_the_largest_ones():
    # A leading term just above the floor has noise ratio 0.5; an earlier
    # entry of a different size still does not set the sign.
    c = np.zeros((NODES, 2))
    c[3, 0] = ROUNDOFF_FLOOR
    c[4] = [-0.6 * 2 * ROUNDOFF_FLOOR, 2 * ROUNDOFF_FLOOR]
    assert leading_term(c, RHO) == (4, 2 * ROUNDOFF_FLOOR, 0.5)


def test_leading_term_scales_the_floor_with_the_radius():
    # At rho = 0.1 a degree-8 term of 1e-3 is 1e-11 on the circle: above
    # the floor, while 1e-10 at degree 7 is 1e-17 and lies below it.
    c = np.zeros(NODES)
    c[7], c[8] = 1e-10, 1e-3
    degree, coefficient, noise = leading_term(c, 0.1)
    assert (degree, coefficient) == (8, 1e-3)
    assert noise == pytest.approx(1e-17 / 1e-11)


def test_slope_with_floor_two_point_fallback():
    taus = np.array([0.2, 0.1, 0.05])
    errors = np.array([8e-10, 1e-11, 1e-16])
    slope = slope_with_floor(taus, errors)
    assert slope == pytest.approx(math.log2(80.0), rel=1e-6)
    # one surviving sample is not enough for any estimate
    assert slope_with_floor(taus, errors, floor=1e-10) is None


def test_integrate_identity_constant_trajectory():
    identity = FlowMap(lambda x, tau: x.copy(), STRANG_META)
    states = integrate(identity, np.array([1.0, 2.0]), 0.1, 5)
    assert states.shape == (6, 2)
    assert np.all(states == np.array([1.0, 2.0]))


def test_integrate_periodicity_of_exact_flow():
    states = integrate(ho_exact_flow(), (2.5, 0.0), 2 * np.pi / 100, 100)
    assert np.max(np.abs(states[-1] - states[0])) < 1e-12


def test_propagate_matches_integrate_final_state():
    method = recursive_family(ho_strang_flow(), 2).levels[-1]
    x0 = (2.5, 0.0)
    final = np.asarray(propagate(method, x0, 0.1, 10))
    assert np.array_equal(final.real, integrate(method, x0, 0.1, 10)[-1])


@pytest.mark.parametrize("run", [integrate, propagate])
def test_integrate_attaches_step_to_singularity(run):
    calls = []

    def bomb(x, tau):
        calls.append(None)
        if len(calls) == 3:
            raise SingularityError("boom")
        return x

    flow = FlowMap(bomb, STRANG_META)
    with pytest.raises(SingularityError) as excinfo:
        run(flow, np.array([1.0]), 0.1, 10)
    assert excinfo.value.step == 2


@pytest.mark.parametrize("run", [integrate, propagate])
def test_integrate_attaches_step_to_non_finite_state(run):
    # 1 -> 1e200 (step 0) -> inf (step 1) -> inf ...
    grow = FlowMap(lambda x, tau: x * 1e200, STRANG_META)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as excinfo:
            run(grow, np.array([1.0]), 0.1, 5)
    assert excinfo.value.step == 1


def _stack_counting(calls, step):
    """A batched map ``x -> step(x, tau)`` per row that records each call's steps."""
    def evaluate(x, tau):
        calls.append(tau)
        if type(tau) is tuple:
            return np.array([step(row, t) for row, t in zip(x, tau)])
        return step(x, tau)
    return FlowMap(evaluate, replace(STRANG_META, batched=True))


def test_stacked_runs_yield_each_final_state_as_its_row_finishes():
    calls = []
    # Each row reaches the oscillator's kernel as the tuple an ODE state is.
    strang = ho_strang_flow()
    method = _stack_counting(calls, lambda row, t: strang(tuple(row.tolist()), t))
    x0 = np.array([1.0, 0.5])
    runs = [(0.1, 3), (0.05, 6), (0.3, 1), (0.15, 2)]
    stack = propagate_stacked(method, x0, runs)
    assert calls == []  # lazy: nothing runs before the first state is asked for
    assert next(stack)[0] == 0.3
    # One call per iteration, the running rows a prefix by decreasing count.
    assert calls == [(0.05, 0.1, 0.15, 0.3)]
    done = [next(stack)[0], next(stack)[0]]
    assert done == [0.15, 0.1] and calls[1:] == [(0.05, 0.1, 0.15), (0.05, 0.1)]
    rest = list(stack)
    assert [tau for tau, _ in rest] == [0.05] and len(calls) == 6
    # Every row has the bits of its own run.
    for tau, state in propagate_stacked(method, x0, runs):
        single = propagate(ho_strang_flow(), tuple(x0), tau, dict(runs)[tau])
        assert state.tobytes() == np.asarray(single).tobytes()


def test_a_stacked_row_that_finishes_non_finite_ends_the_stack():
    # Row 0.2 overflows in its first step, while the others stay finite.
    grow = _stack_counting([], FlowMap(lambda x, tau: x * (1e300 if tau == 0.2 else 1.0),
                                       STRANG_META))
    stack = propagate_stacked(grow, np.array([1e10]), [(0.1, 3), (0.2, 2), (0.3, 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert next(stack)[0] == 0.3
        with pytest.raises(NonFiniteError) as excinfo:
            next(stack)
    assert excinfo.value.step is None
    assert list(stack) == []


def test_integrate_rejects_zero_steps():
    # propagate shares integrate's one check on n_steps.
    for run in (integrate, propagate):
        with pytest.raises(ValidationError):
            run(FlowMap(lambda x, tau: x.copy(), STRANG_META), np.array([1.0]), 0.1, 0)
        with pytest.raises(ValidationError):
            run(ho_strang_flow(), (1.0, 0.0), 0.1, -3)


def test_step_count_allows_rounding_only():
    assert step_count(1.0, 0.1) == 10
    assert step_count(0.9, 0.3) == 3
    with pytest.raises(ValidationError, match="integer multiple"):
        step_count(1.0 + 5e-10, 0.1)


def _matrix_series(matrix):
    """Taylor coefficients of ``matrix(tau)`` on the ho-table1 circle."""
    return taylor_coefficients(lambda taus: np.array([matrix(t) for t in taus]),
                               RHO, NODES)


def _symmetry_series(method):
    return _matrix_series(lambda t: method.matrix(t) @ method.matrix(-t) - np.eye(2))


def test_symmetry_series_of_symmetric_method_below_floor():
    c = _symmetry_series(ho_strang_flow())
    assert np.max(np.abs(c)) < 1e-14
    assert leading_term(c, RHO) is None


def test_round_trip_series_matches_symmetry_series():
    method = recursive_family(ho_strang_flow(), 1).levels[0]
    x0 = (1.0 + 0j, 0j)
    point_mode = taylor_coefficients(
        lambda taus: np.array([np.asarray(method(method(x0, -t), t)) - x0 for t in taus]),
        RHO, NODES)
    # The round trip from the first basis vector is the first column of
    # M(tau)M(-tau) - I, coefficient by coefficient.
    matrix_mode = _symmetry_series(method)[:, :, 0]
    assert np.max(np.abs(point_mode - matrix_mode)) < 1e-12
    assert leading_term(point_mode, RHO)[0] == 8


def test_determinant_defect_of_exact_rotation_below_floor():
    c = _matrix_series(lambda t: np.linalg.det(ho_exact_flow().matrix(t)) - 1.0)
    assert np.max(np.abs(c)) < 1e-14
    assert leading_term(c, RHO) is None


def test_symplecticity_defect_point_mode_strang():
    x0 = tuple(kepler_initial_conditions(0.6).as_vector().tolist())
    for tau in (0.2, 0.1, 0.05):
        # an exactly symplectic map: what remains is roundoff
        assert np.max(np.abs(symplecticity_defect(kepler_strang_flow(), x0, tau))) < 1e-13


@pytest.mark.parametrize("base", ["strang", "s4sim"])
@pytest.mark.parametrize("tau", [0.3, 0.3 * np.exp(0.4j), -0.7])
def test_symplecticity_defect_matches_matrix_determinant(base, tau):
    # For a linear 2x2 map M^T S M = det(M) S, so the Jacobian read through
    # the Taylor cell must give (det M - 1) S at every state.
    flow = ho_strang_flow() if base == "strang" else s4sim(ho_drift_flow(), ho_kick_flow())
    form = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for level in recursive_family(flow, 3).levels:
        expected = (np.linalg.det(level.matrix(tau)) - 1.0) * form
        defect = symplecticity_defect(level, (0.8, -0.3), tau)
        assert np.max(np.abs(defect - expected)) < 1e-13


def test_symplecticity_defect_rejects_odd_dimension():
    # Only a 1-D vector of even length is a canonical state: an odd vector,
    # a (v, w) CGL field, a 0-d state and a column are all rejected.
    flow = FlowMap(lambda x, tau: x, STRANG_META)
    for x0 in (np.array([1.0, 2.0, 3.0]), np.ones((2, 8)), np.array(1.0),
               np.ones((4, 1))):
        with pytest.raises(DomainError):
            symplecticity_defect(flow, x0, 0.1)


def _truncation_terms(matrix):
    """Entrywise leading terms of the truncation matrices of ``x -> matrix(tau) x``."""
    method = FlowMap(lambda x, tau: matrix(tau) @ x, STRANG_META)
    c = _matrix_series(lambda t: ho_exact(t) - method.matrix(t))
    return [[leading_term(c[:, i, j], RHO) for j in range(2)] for i in range(2)]


def test_leading_term_reads_synthetic_truncation():
    def matrix(tau):
        defect = np.zeros((2, 2), dtype=complex)
        defect[0, 0] = 2e-3 * tau**5
        return ho_exact(tau) - defect

    terms = _truncation_terms(matrix)
    assert terms[0][0][0] == 5
    # the difference of O(1) matrix entries leaves cancellation noise
    assert terms[0][0][1] == pytest.approx(2e-3, rel=1e-6)
    assert terms[0][1] is None
    assert terms[1][0] is None
    assert terms[1][1] is None


def test_leading_term_keeps_truncation_sign():
    def matrix(tau):
        defect = np.zeros((2, 2), dtype=complex)
        defect[1, 0] = -4e-3 * tau**3
        return ho_exact(tau) - defect

    terms = _truncation_terms(matrix)
    assert terms[1][0][1] == pytest.approx(-4e-3, rel=1e-6)


def test_energy_error_series_exact_flow():
    states = integrate(ho_exact_flow(), (2.5, 0.0), 0.1, 50)
    series = energy_error_series(states, ho_energy)
    assert series[0] == 0.0
    assert np.max(series) < 1e-13


def test_energy_error_series_zero_reference():
    with pytest.raises(DomainError):
        energy_error_series(np.zeros((2, 2)), ho_energy)


def test_energy_error_series_calls_energy_once_on_the_whole_stack():
    states = integrate(ho_strang_flow(), (2.5, 0.0), 0.1, 200)
    shapes = []

    def energy(x):
        shapes.append(np.shape(x))
        return ho_energy(x)

    series = energy_error_series(states, energy)
    assert shapes == [states.shape]
    h = np.array([0.5 * (q**2 + p**2) for q, p in states.tolist()])
    assert series.tobytes() == (np.abs(h - h[0]) / abs(h[0])).tobytes()


def _as_integrate_returns(rows):
    """``rows`` as the real part of a complex buffer, the strided view that
    :func:`integrate` returns."""
    buffer = np.empty(rows.shape, dtype=complex)
    buffer.real, buffer.imag = rows, 0.5
    return buffer.real


@pytest.mark.parametrize("strided", [False, True])
def test_stacked_ho_energy_equals_the_per_state_formula_bit_for_bit(strided):
    rng = np.random.default_rng(311)
    values = rng.uniform(-3.0, 3.0, size=20000)
    # Values whose libm square pow(q, 2.0), Python's q**2, is not the
    # correctly rounded q * q: ho_energy computing q * q fails on them.
    ties = [q for q in values.tolist() if q**2 != q * q]
    assert ties
    stack = np.concatenate([values[:2000], ties, ties[::-1]]).reshape(-1, 2)
    want = np.array([0.5 * (q**2 + p**2) for q, p in stack.tolist()])
    assert np.any(0.5 * (stack[:, 0] * stack[:, 0] + stack[:, 1] * stack[:, 1]) != want)
    got = ho_energy(_as_integrate_returns(stack) if strided else stack)
    assert got.tobytes() == want.tobytes()
    assert [ho_energy(state) for state in stack[:20]] == want[:20].tolist()


@pytest.mark.parametrize("strided", [False, True])
def test_stacked_kepler_energy_equals_the_per_state_formula_bit_for_bit(strided):
    # ``p @ p`` runs BLAS's dot, which fuses its products on some builds,
    # so the stacked energy must use the same dot, not p1*p1 + p2*p2.
    rng = np.random.default_rng(312)
    stack = rng.uniform(-2.0, 2.0, size=(5000, 4))
    want = np.array([0.5 * (row[2:] @ row[2:]) - 1.0 / float(np.hypot(row[0], row[1]))
                     for row in stack])
    got = kepler_energy(_as_integrate_returns(stack) if strided else stack)
    assert got.tobytes() == want.tobytes()
    assert [kepler_energy(state) for state in stack[:20]] == want[:20].tolist()


def test_stacked_kepler_energy_names_the_first_collision():
    stack = np.tile([1.0, 0.5, 0.2, 0.3], (6, 1))
    stack[[3, 5], :2] = 0.0
    with pytest.raises(SingularityError) as info:
        kepler_energy(stack)
    assert info.value.index == 3


def test_envelope_growth():
    series = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)])
    assert envelope_growth(series) == pytest.approx((1.0, 3.0, 2.0))
