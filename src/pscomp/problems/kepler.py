"""Planar two-body (Kepler) problem: H = p.p/2 - 1/r.

The kick stage needs 1/r^3 for complex stage positions: the principal
branch of (q1^2 + q2^2)^{-3/2}, one complex square root per kick
(:func:`~pscomp.complexlog.analytic_inv_r3`), so every stage map stays
holomorphic off the negative real axis of q1^2 + q2^2.  A trajectory
crossing that cut raises a :class:`SingularityError`; no alternative
branch is chosen.

State vectors are laid out as ``[q1, q2, p1, p2]``; the drift and kick
step them as Python ``complex`` scalars and return a new complex array.
The Strang base unpacks the state once, runs drift(tau/2), kick(tau) and
drift(tau/2) on the four scalars with the stages' own expressions in
their order, and builds one array, so it equals
``strang(kepler_drift_flow(), kepler_kick_flow())`` bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..complexlog import analytic_inv_r3
from ..errors import DomainError, SingularityError
from ..flowmap import EXACT_META, STRANG_META, FlowMap


@dataclass
class KeplerState:
    """Positions and momenta.

    Physical states are real; intermediate stage states of complex-step
    compositions may hold complex entries.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=complex).reshape(2)
        self.p = np.asarray(self.p, dtype=complex).reshape(2)

    def as_vector(self):
        return np.concatenate([self.q, self.p])


def kepler_initial_conditions(e):
    """Perihelion start of an orbit with eccentricity ``e``.

    q = (1-e, 0), p = (0, sqrt((1+e)/(1-e))); the resulting trajectory has
    period 2*pi for every 0 <= e < 1.
    """
    if not 0.0 <= e < 1.0:
        raise DomainError(f"eccentricity must lie in [0, 1), got {e}")
    return KeplerState(
        q=np.array([1.0 - e, 0.0]),
        p=np.array([0.0, math.sqrt((1.0 + e) / (1.0 - e))]),
    )


def kepler_energy(x):
    """Hamiltonian value of the real part of a state vector; r = 0 raises."""
    x = np.asarray(x).real
    q, p = x[:2], x[2:]
    r = float(np.hypot(q[0], q[1]))
    if r == 0.0:
        raise SingularityError("collision: r = 0", value=0.0)
    return float(0.5 * (p @ p) - 1.0 / r)


def _drift(x, tau):
    q1, q2, p1, p2 = x.tolist()
    return np.array([q1 + tau * p1, q2 + tau * p2, p1, p2], dtype=complex)


def _kick(x, tau):
    q1, q2, p1, p2 = x.tolist()
    factor = tau * analytic_inv_r3(q1 * q1 + q2 * q2)
    return np.array([q1, q2, p1 - factor * q1, p2 - factor * q2], dtype=complex)


def kepler_drift_flow():
    return FlowMap(_drift, EXACT_META)


def kepler_kick_flow():
    return FlowMap(_kick, EXACT_META)


def kepler_strang_flow():
    """Second-order splitting drift(tau/2), kick(tau), drift(tau/2), one pass."""

    def apply(x, tau):
        half = tau / 2.0
        q1, q2, p1, p2 = x.tolist()
        q1, q2 = q1 + half * p1, q2 + half * p2
        factor = tau * analytic_inv_r3(q1 * q1 + q2 * q2)
        p1, p2 = p1 - factor * q1, p2 - factor * q2
        return np.array([q1 + half * p1, q2 + half * p2, p1, p2], dtype=complex)

    return FlowMap(apply, STRANG_META)
