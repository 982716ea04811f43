"""Kepler problem: stage flows, initial data, energy, symplectic shears."""

import numpy as np
import pytest

from pscomp.coefficients import gamma_smallest_phase
from pscomp.diagnostics import integrate, power_law_fit, symplecticity_defect
from pscomp.errors import DomainError, SingularityError
from pscomp.problems import (
    kepler_drift_flow, kepler_energy, kepler_initial_conditions,
    kepler_kick_flow, kepler_strang_flow, strang,
)

GAMMA = gamma_smallest_phase(2)


def test_initial_conditions_moderate_eccentricity():
    state = kepler_initial_conditions(0.6)
    np.testing.assert_allclose(state.q.real, [0.4, 0.0], atol=1e-15)
    np.testing.assert_allclose(state.p.real, [0.0, 2.0], atol=1e-15)


def test_initial_conditions_circular():
    state = kepler_initial_conditions(0.0)
    np.testing.assert_allclose(state.q.real, [1.0, 0.0])
    np.testing.assert_allclose(state.p.real, [0.0, 1.0])
    assert kepler_energy(state.as_vector()) == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("e", [1.0, 1.5, -0.1])
def test_initial_conditions_domain(e):
    with pytest.raises(DomainError):
        kepler_initial_conditions(e)


def test_energy_values():
    assert kepler_energy(kepler_initial_conditions(0.6).as_vector()) == pytest.approx(-0.5)
    assert kepler_energy(np.array([1.0, 0.0, 0.0, 1.0])) == pytest.approx(-0.5)


def test_energy_kinetic_scaling():
    t1 = kepler_energy(np.array([1.0, 0.0, 0.3, 0.4])) + 1.0  # strip -mu/r = -1
    t2 = kepler_energy(np.array([1.0, 0.0, 0.6, 0.8])) + 1.0
    assert t2 == pytest.approx(4.0 * t1)


def test_energy_collision_raises():
    with pytest.raises(SingularityError):
        kepler_energy(np.zeros(4))


def test_drift_zero_step_identity():
    x = kepler_initial_conditions(0.3).as_vector()
    out = kepler_drift_flow()(x, 0.0)
    np.testing.assert_array_equal(out, x)


def test_drift_moves_positions():
    x = np.array([1.0, 2.0, 0.5, -0.5])
    out = kepler_drift_flow()(x, 0.2)
    np.testing.assert_allclose(out[:2].real, [1.1, 1.9], atol=1e-15)
    np.testing.assert_array_equal(out[2:], x[2:])


def test_kick_at_unit_radius():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    out = kepler_kick_flow()(x, 0.1)
    np.testing.assert_allclose(out[2:].real, [-0.1, 0.0], atol=1e-16)
    np.testing.assert_array_equal(out[:2], x[:2])


def test_kick_branch_cut_raises():
    # A stage state whose q1^2 + q2^2 lands on the negative real axis.
    x = np.array([1j, 0.0, 0.0, 0.0])
    with pytest.raises(SingularityError):
        kepler_kick_flow()(x, 0.1)


def test_stage_flows_are_symplectic_shears():
    x0 = kepler_initial_conditions(0.6).as_vector()
    taus = np.array([0.4, 0.2, 0.1])
    for flow in (kepler_drift_flow(), kepler_kick_flow()):
        defects = [np.max(np.abs(symplecticity_defect(flow, x0, tau))) for tau in taus]
        assert np.max(defects) < 1e-13


def test_strang_local_energy_error_third_order():
    # Measured away from the perihelion start: there the reflection
    # symmetry of the orbit cancels the leading tau^3 energy term (the
    # observed one-step slope at that special point is 4).
    method = kepler_strang_flow()
    x = kepler_initial_conditions(0.6).as_vector()
    for _ in range(7):
        x = method(x, 0.05)
    h0 = kepler_energy(x)
    taus = 0.02 * 0.5 ** np.arange(5)
    errors = []
    for tau in taus:
        out = method(x, tau)
        h = kepler_energy(out)
        errors.append(abs(h - h0))
    exponent = power_law_fit(taus, errors)[0]
    assert abs(exponent - 3.0) < 0.15


def test_strang_long_run_energy_bounded():
    method = kepler_strang_flow()
    x0 = kepler_initial_conditions(0.6).as_vector()
    states = integrate(method, x0, 20.0 / 2000.0, 2000)
    h0 = kepler_energy(x0)
    errors = [abs(kepler_energy(s) - h0) / abs(h0) for s in states]
    assert max(errors) < 1e-2


@pytest.mark.parametrize("tau", [0.1, -0.37, 0.0, GAMMA * 0.1, GAMMA.conjugate() * 0.1])
@pytest.mark.parametrize("x", [
    kepler_initial_conditions(0.6).as_vector(),
    np.array([0.4 + 0.05j, -0.1 - 0.02j, 0.3j, 2.0 - 0.1j]),
], ids=["real_state", "complex_state"])
def test_one_pass_strang_equals_the_staged_strang_bit_for_bit(x, tau):
    fused = kepler_strang_flow()(x, tau)
    staged = strang(kepler_drift_flow(), kepler_kick_flow())(x, tau)
    assert fused.dtype == staged.dtype
    assert fused.tobytes() == staged.tobytes()


def test_one_pass_strang_raises_the_staged_singularity():
    # q1 = i after the first half drift (p = 0): q1^2 + q2^2 = -1 is on the cut.
    x = np.array([1j, 0.0, 0.0, 0.0])
    errors = []
    for method in (kepler_strang_flow(), strang(kepler_drift_flow(), kepler_kick_flow())):
        with pytest.raises(SingularityError) as info:
            method(x, 0.1)
        errors.append((str(info.value), info.value.value, info.value.index))
    assert errors[0] == errors[1]
