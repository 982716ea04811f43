"""Fitting machinery, integration harness, and defect measurements."""

import math

import numpy as np
import pytest

from pscomp.composition import recursive_family
from pscomp.diagnostics import (
    PowerLawFit, energy_error_series, envelope_growth,
    fit_leading_term, integrate, oscillator_defects, power_law_fit,
    propagate, slope_with_floor, step_count, successive_error, symmetry_defect,
    symplecticity_defect,
)
from pscomp.errors import DomainError, SingularityError, ValidationError
from pscomp.flowmap import EXACT_META, FlowMap
from pscomp.problems import (
    ho_energy, ho_exact, ho_exact_flow, ho_strang_flow,
    kepler_initial_conditions, kepler_strang_flow,
)


def test_power_law_fit_exact_cubic():
    taus = 0.5 ** np.arange(6)
    fit = power_law_fit(taus, taus**3)
    assert abs(fit.exponent - 3.0) < 1e-12
    assert abs(fit.coefficient - 1.0) < 1e-12
    assert fit.residual < 1e-12


def test_power_law_fit_scaled_quadratic():
    taus = 0.5 ** np.arange(5)
    fit = power_law_fit(taus, 5.0 * taus**2)
    assert abs(fit.exponent - 2.0) < 1e-12
    assert abs(fit.coefficient - 5.0) < 1e-11


@pytest.mark.parametrize("p", range(2, 9))
def test_power_law_fit_recovers_synthetic_orders(p):
    taus = 0.8 * 0.5 ** np.arange(6)
    coefficient = 2.5e-3
    fit = power_law_fit(taus, coefficient * taus**p)
    assert abs(fit.exponent - p) < 1e-10
    assert abs(fit.coefficient - coefficient) / coefficient < 1e-10


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
    fit = power_law_fit(taus, 2.0 * taus**2.5)
    assert abs(fit.exponent - 2.5) < 1e-10
    assert abs(fit.coefficient - 2.0) / 2.0 < 1e-9


def test_fit_leading_term_floor_filtering():
    taus = 0.8 * 0.5 ** np.arange(6)
    errors = 1e-3 * taus**5
    errors[-1] = 1e-16  # drowned sample
    fit = fit_leading_term(taus, errors)
    assert fit.n_samples == 5
    assert abs(fit.exponent - 5.0) < 1e-6


def test_fit_leading_term_all_below_floor():
    taus = np.array([0.4, 0.2, 0.1])
    assert fit_leading_term(taus, np.full(3, 1e-16)) is None


def test_fit_leading_term_narrows_contaminated_window():
    taus = 0.8 * 0.5 ** np.arange(6)
    errors = taus**5 * (1.0 + 2.0 * taus**2)  # strong large-step pollution
    fit = fit_leading_term(taus, errors)
    assert fit.n_samples < 6
    assert abs(fit.exponent - 5.0) < 0.05
    assert abs(fit.coefficient - 1.0) < 0.02


def test_slope_with_floor_two_point_fallback():
    taus = np.array([0.2, 0.1, 0.05])
    errors = np.array([8e-10, 1e-11, 1e-16])
    slope = slope_with_floor(taus, errors)
    assert slope == pytest.approx(math.log2(80.0), rel=1e-6)
    # one surviving sample is not enough for any estimate
    assert slope_with_floor(taus, errors, floor=1e-10) is None


def test_integrate_identity_constant_trajectory():
    identity = FlowMap(lambda x, tau: x.copy(), EXACT_META)
    states = integrate(identity, np.array([1.0, 2.0]), 0.1, 5)
    assert states.shape == (6, 2)
    assert np.all(states == np.array([1.0, 2.0]))


def test_integrate_periodicity_of_exact_flow():
    states = integrate(ho_exact_flow(), np.array([2.5, 0.0]), 2 * np.pi / 100, 100)
    assert np.max(np.abs(states[-1] - states[0])) < 1e-12


def test_propagate_matches_integrate_final_state():
    method = recursive_family(ho_strang_flow(), 2).levels[-1]
    x0 = np.array([2.5, 0.0])
    final = propagate(method, x0, 0.1, 10)
    assert np.array_equal(final.real, integrate(method, x0, 0.1, 10)[-1])


@pytest.mark.parametrize("run", [integrate, propagate])
def test_integrate_attaches_step_to_singularity(run):
    calls = []

    def bomb(x, tau):
        calls.append(None)
        if len(calls) == 3:
            raise SingularityError("boom")
        return x

    flow = FlowMap(bomb, EXACT_META)
    with pytest.raises(SingularityError) as excinfo:
        run(flow, np.array([1.0]), 0.1, 10)
    assert excinfo.value.step == 2


def test_integrate_rejects_zero_steps():
    with pytest.raises(ValidationError):
        integrate(FlowMap(lambda x, tau: x.copy(), EXACT_META), np.array([1.0]), 0.1, 0)


def test_successive_error_exact_flow_vanishes():
    value, fine = successive_error(ho_exact_flow(), np.array([1.0, 0.5]), 0.1, 1.0)
    assert value < 1e-13
    np.testing.assert_allclose(fine, ho_exact(1.0) @ [1.0, 0.5], atol=1e-13)


def test_successive_error_order_two_halving():
    method = ho_strang_flow()
    x0 = np.array([1.0, 0.3])
    e1, _ = successive_error(method, x0, 0.05, 1.0)
    e2, _ = successive_error(method, x0, 0.025, 1.0)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_successive_error_rejects_non_multiple():
    with pytest.raises(ValidationError):
        successive_error(ho_exact_flow(), np.array([1.0, 0.0]), 0.3, 1.0)


def test_step_count_allows_rounding_only():
    assert step_count(1.0, 0.1) == 10
    assert step_count(0.9, 0.3) == 3
    with pytest.raises(ValidationError, match="integer multiple"):
        successive_error(ho_exact_flow(), np.array([1.0, 0.0]), 0.1, 1.0 + 5e-10)


def test_symmetry_defect_symmetric_method_below_floor():
    taus = np.array([0.4, 0.2, 0.1])
    defects = [oscillator_defects(ho_strang_flow(), tau)[1] for tau in taus]
    assert np.max(defects) < 1e-14
    assert fit_leading_term(taus, defects) is None


def test_symmetry_defect_point_mode_matches_matrix_mode():
    method = recursive_family(ho_strang_flow(), 1).levels[0]
    taus = np.array([0.8, 0.4, 0.2])
    point_mode = [symmetry_defect(method, np.array([1.0, 0.0]), tau) for tau in taus]
    # The point-mode defect on basis vectors is bounded by the matrix norm.
    for tau, defect in zip(taus, point_mode):
        assert defect <= 2.0 * oscillator_defects(method, tau)[1] + 1e-15


def test_symplecticity_defect_exact_rotation():
    taus = np.array([0.4, 0.2, 0.1])
    defects = [oscillator_defects(ho_exact_flow(), tau)[2] for tau in taus]
    assert np.max(defects) < 1e-14
    assert fit_leading_term(taus, defects) is None


def test_symplecticity_defect_point_mode_strang():
    x0 = kepler_initial_conditions(0.6).as_vector()
    taus = np.array([0.2, 0.1, 0.05])
    defects = [symplecticity_defect(kepler_strang_flow(), x0, tau) for tau in taus]
    # exactly symplectic map; what remains is finite-difference truncation,
    # amplified by the 1/r^3 curvature near perihelion
    assert np.max(defects) < 1e-7


def test_symplecticity_defect_rejects_odd_dimension():
    flow = FlowMap(lambda x, tau: x, EXACT_META)
    with pytest.raises(DomainError):
        symplecticity_defect(flow, np.array([1.0, 2.0, 3.0]), 0.1)


def _truncation_fits(matrix, taus):
    """Entrywise fits of the truncation matrices of ``x -> matrix(tau) x``."""
    method = FlowMap(lambda x, tau: matrix(tau) @ x, EXACT_META)
    truncation = np.array([oscillator_defects(method, tau)[0] for tau in taus])
    return [[fit_leading_term(taus, truncation[:, i, j]) for j in range(2)]
            for i in range(2)]


def test_truncation_matrix_fit_synthetic():
    def matrix(tau):
        defect = np.zeros((2, 2), dtype=complex)
        defect[0, 0] = 2e-3 * tau**5
        return ho_exact(tau) - defect

    taus = 0.8 * 0.5 ** np.arange(6)
    fits = _truncation_fits(matrix, taus)
    assert abs(fits[0][0].exponent - 5.0) < 1e-5
    # the difference of O(1) matrix entries leaves cancellation noise
    assert fits[0][0].coefficient == pytest.approx(2e-3, rel=1e-6)
    assert fits[0][1] is None
    assert fits[1][0] is None
    assert fits[1][1] is None


def test_truncation_matrix_fit_sign():
    def matrix(tau):
        defect = np.zeros((2, 2), dtype=complex)
        defect[1, 0] = -4e-3 * tau**3
        return ho_exact(tau) - defect

    taus = 0.4 * 0.5 ** np.arange(5)
    fits = _truncation_fits(matrix, taus)
    assert fits[1][0].coefficient == pytest.approx(-4e-3, rel=1e-6)


def test_energy_error_series_exact_flow():
    states = integrate(ho_exact_flow(), np.array([2.5, 0.0]), 0.1, 50)
    series = energy_error_series(states, ho_energy)
    assert series[0] == 0.0
    assert np.max(series) < 1e-13


def test_energy_error_series_zero_reference():
    with pytest.raises(DomainError):
        energy_error_series(np.zeros((2, 2)), ho_energy)


def test_envelope_growth():
    series = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)])
    assert envelope_growth(series) == pytest.approx((1.0, 3.0, 2.0))


def test_power_law_fit_requires_three_samples_dataclass():
    with pytest.raises(ValidationError):
        PowerLawFit(exponent=2.0, coefficient=1.0, residual=0.0, n_samples=2)
