"""Harmonic oscillator with unit frequency: H = p^2/2 + q^2/2.

States are ``[q, p]``.  The drift (q += tau p) and kick (p -= tau q) are
the exact flows of the kinetic and potential parts, stepped as Python
``complex`` scalars like Kepler's, and ``strang(drift, kick)`` is the
base method.  ``ho_exact``, the rotation matrix of the full flow at a
(complex) step, is the oracle of the diagnostics.
"""

import numpy as np

from ..flowmap import EXACT_META, FlowMap
from .splitting import strang


def ho_exact(tau):
    """Exact rotation matrix of the full oscillator at (complex) step tau."""
    c, s = np.cos(tau), np.sin(tau)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _drift(x, tau):
    q, p = x.tolist()
    return np.array([q + tau * p, p])


def _kick(x, tau):
    q, p = x.tolist()
    return np.array([q, p - tau * q])


def ho_exact_flow():
    return FlowMap(lambda x, tau: ho_exact(tau) @ x, EXACT_META)


def ho_drift_flow():
    return FlowMap(_drift, EXACT_META)


def ho_kick_flow():
    return FlowMap(_kick, EXACT_META)


def ho_strang_flow():
    """Second-order splitting: drift(tau/2), kick(tau), drift(tau/2)."""
    return strang(ho_drift_flow(), ho_kick_flow())


def ho_energy(state):
    q, p = complex(state[0]), complex(state[1])
    return 0.5 * (q.real**2 + p.real**2)
