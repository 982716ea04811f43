"""Harmonic-oscillator flows and the second-order splitting."""

import numpy as np
import pytest

from pscomp.coefficients import gamma_smallest_phase
from pscomp.diagnostics import power_law_fit
from pscomp.problems import ho_drift_flow, ho_exact, ho_kick_flow, ho_strang_flow
from pscomp.problems import strang as staged_strang

GAMMA = gamma_smallest_phase(2)


def drift(tau):
    """Closed-form shear of the kinetic part, q += tau * p."""
    return np.array([[1.0, tau], [0.0, 1.0]], dtype=complex)


def kick(tau):
    """Closed-form shear of the potential part, p -= tau * q."""
    return np.array([[1.0, 0.0], [-tau, 1.0]], dtype=complex)


def strang(tau):
    """Closed-form Strang matrix D(tau/2) K(tau) D(tau/2)."""
    return drift(tau / 2) @ kick(tau) @ drift(tau / 2)


def test_exact_at_zero_is_identity():
    assert np.array_equal(ho_exact(0.0), np.eye(2))


def test_exact_quarter_rotation():
    expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(ho_exact(np.pi / 2) - expected)) < 1e-15


def test_drift_kick_unit_determinant_complex_step():
    tau = 0.3 + 0.1j
    product = ho_drift_flow().matrix(tau) @ ho_kick_flow().matrix(tau)
    assert abs(np.linalg.det(product) - 1.0) < 1e-15


def test_strang_time_symmetry_random_complex_steps():
    flow = ho_strang_flow()
    rng = np.random.default_rng(17)
    for _ in range(20):
        tau = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        roundtrip = flow.matrix(-tau) @ flow.matrix(tau)
        assert np.max(np.abs(roundtrip - np.eye(2))) < 5e-16


def test_strang_unit_determinant():
    assert abs(np.linalg.det(ho_strang_flow().matrix(0.5 + 0.2j)) - 1.0) < 1e-15


def test_strang_one_step_error_is_third_order():
    flow = ho_strang_flow()
    taus = 0.2 * 0.5 ** np.arange(6)
    errors = [np.max(np.abs(ho_exact(t) - flow.matrix(t))) for t in taus]
    exponent = power_law_fit(taus, errors)[0]
    assert abs(exponent - 3.0) < 0.1


def test_strang_flow_matches_matrix():
    flow = ho_strang_flow()
    x = (1.0 + 0j, -2.0 + 0j)
    tau = 0.37
    np.testing.assert_allclose(np.asarray(flow(x, tau)), strang(tau) @ x, atol=0)


@pytest.mark.parametrize("tau", [0.1, -0.37, 0.0, GAMMA * 0.1, GAMMA.conjugate() * 0.1])
@pytest.mark.parametrize("x", [(2.5 + 0j, 0j), (0.3 - 1.2j, -0.7 + 0.4j), (2.5, -0.5)],
                         ids=["real_state", "complex_state", "float_state"])
def test_one_pass_strang_equals_the_staged_strang_bit_for_bit(x, tau):
    # A tuple of Python floats runs the same scalar arithmetic in both.
    fused = ho_strang_flow()(x, tau)
    staged = staged_strang(ho_drift_flow(), ho_kick_flow())(x, tau)
    assert [type(v) for v in fused] == [type(v) for v in staged]
    assert np.array(fused).tobytes() == np.array(staged).tobytes()
