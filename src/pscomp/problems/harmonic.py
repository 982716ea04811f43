"""Harmonic oscillator with unit frequency: H = p^2/2 + q^2/2.

All maps are 2x2 matrices acting on (q, p); drift and kick are the exact
flows of the kinetic and potential parts, and their palindromic product is
the second-order splitting used as the base method everywhere.  The matrix
functions accept complex steps (cos/sin extend analytically).
"""

import numpy as np

from ..flowmap import EXACT_META, STRANG_META, matrix_flow


def ho_exact(tau):
    """Exact rotation matrix of the full oscillator at (complex) step tau."""
    c, s = np.cos(tau), np.sin(tau)
    return np.array([[c, s], [-s, c]], dtype=complex)


def ho_drift(tau):
    """Exact flow of the kinetic part: shear q += tau * p."""
    return np.array([[1.0, tau], [0.0, 1.0]], dtype=complex)


def ho_kick(tau):
    """Exact flow of the potential part: shear p -= tau * q."""
    return np.array([[1.0, 0.0], [-tau, 1.0]], dtype=complex)


def ho_strang(tau):
    """Second-order splitting matrix: drift(tau/2) kick(tau) drift(tau/2)."""
    return ho_drift(tau / 2) @ ho_kick(tau) @ ho_drift(tau / 2)


def ho_exact_flow():
    return matrix_flow(ho_exact, EXACT_META, name="ho-exact")


def ho_drift_flow():
    return matrix_flow(ho_drift, EXACT_META, name="ho-drift")


def ho_kick_flow():
    return matrix_flow(ho_kick, EXACT_META, name="ho-kick")


def ho_strang_flow():
    return matrix_flow(ho_strang, STRANG_META, name="ho-strang")


def ho_energy(state):
    q, p = complex(state[0]), complex(state[1])
    return 0.5 * (q.real**2 + p.real**2)
