"""Harmonic oscillator with unit frequency: H = p^2/2 + q^2/2.

States are tuples ``(q, p)`` of Python ``complex``, like Kepler's.  The
drift (q += tau p) and kick (p -= tau q) are the exact flows of the kinetic
and potential parts; each returns a new tuple with the entry it moves
recomputed and the other passed through.  The Strang base runs
drift(tau/2), kick(tau), drift(tau/2) in one pass over ``q`` and ``p`` with
the stages' own expressions, so it equals
``strang(ho_drift_flow(), ho_kick_flow())`` bit for bit.  ``ho_exact``, the
rotation matrix of the full flow at a (complex) step, is the oracle of the
diagnostics; ``ho_exact_flow`` applies it to a state.
"""

import numpy as np

from ..flowmap import STRANG_META, FlowMap


def ho_exact(tau):
    """Exact rotation matrix of the full oscillator at (complex) step tau."""
    c, s = np.cos(tau), np.sin(tau)
    return np.array([[c, s], [-s, c]], dtype=complex)


def _drift(x, tau):
    q, p = x
    return (q + tau * p, p)


def _kick(x, tau):
    q, p = x
    return (q, p - tau * q)


def ho_exact_flow():
    return FlowMap(lambda x, tau: tuple(map(complex, ho_exact(tau) @ x)), STRANG_META)


def ho_drift_flow():
    return FlowMap(_drift, STRANG_META)


def ho_kick_flow():
    return FlowMap(_kick, STRANG_META)


def ho_strang_flow():
    """Second-order splitting drift(tau/2), kick(tau), drift(tau/2), one pass."""

    def apply(x, tau):
        half = tau / 2.0
        q, p = x
        q = q + half * p
        p = p - tau * q
        return (q + half * p, p)

    return FlowMap(apply, STRANG_META)


def ho_energy(state):
    """Energy of the real part of one state or of a stack along the last axis;
    ``float_power`` keeps the bits of ``q**2`` (libm ``pow``), not ``q * q``."""
    x = np.asarray(state).real
    return 0.5 * (np.float_power(x[..., 0], 2.0) + np.float_power(x[..., 1], 2.0))
