"""Complex Ginzburg-Landau equation u_t = alpha u_xx + eps u - beta |u|^2 u
with alpha = 1 + i c1 and beta = 1 - i c3, propagated as a real system for
(v, w) = (Re u, Im u) so that complex time steps are legitimate (|u|^2 u is
not holomorphic in u).

A constant linear change of variables diagonalizes both the dispersive and
the cubic coupling:

    vt = (-i v + w) / 2,   wt = (v - i w) / 2,

in which the linear part propagates mode k of vt with
exp(eps t) exp(-t alpha k^2) (conjugate alpha for wt) and the cubic part
has the closed form

    vt(t) = vt0 exp(-(beta/2) log(1 + 2 t m0)),
    wt(t) = wt0 exp(-(conj(beta)/2) log(1 + 2 t m0)),

with m0 = 4i vt0 wt0 (= v0^2 + w0^2) and the principal logarithm, defined
as long as 1 + 2 t m0 avoids the negative real axis.  Since Re beta = 1,
conj(beta) = 2 - beta and the second factor is 1 / ((1 + 2 t m0) times the
first), so the cubic substep takes one exp.  States are stored as (2, N)
arrays holding the (v, w) rows; the diagonal variables are internal to
each evaluation: the Strang step changes basis once each way and runs its
three substeps in place on one array.
"""

from dataclasses import dataclass

import numpy as np

from ..complexlog import principal_log
from ..flowmap import EXACT_META, STRANG_META, FlowMap
from ..spectral import step_cache


@dataclass(frozen=True)
class CGLParams:
    """Real model coefficients; alpha and beta are derived."""

    c1: float
    c3: float
    eps: float

    @property
    def alpha(self):
        return complex(1.0, self.c1)

    @property
    def beta(self):
        return complex(1.0, -self.c3)


def _to_diagonal(vw):
    v, w = vw
    return np.array([0.5 * (-1j * v + w), 0.5 * (v - 1j * w)])


def _from_diagonal(diag):
    dv, dw = diag
    return np.array([1j * dv + dw, dv + 1j * dw])


def _linear(diag, multipliers):
    """Linear substep in place on the diagonal rows."""
    for row, multiplier in enumerate(multipliers):
        diag[row] = np.fft.ifft(multiplier * np.fft.fft(diag[row]))
    return diag


def _cubic(diag, tau, beta):
    """Cubic substep in place on the diagonal rows."""
    z = 1.0 + 2.0 * tau * (4j * diag[0] * diag[1])
    decay = np.exp(-0.5 * beta * principal_log(z))
    diag[0] *= decay
    decay *= z  # exp(-(conj(beta)/2) log z) = 1 / (z exp(-(beta/2) log z))
    diag[1] /= decay
    return diag


def _multipliers(params, grid):
    """Step-cached Fourier multipliers of the linear flow, one per diagonal row."""
    alpha, eps = params.alpha, params.eps
    k2 = grid.wavenumbers() ** 2

    @step_cache
    def multipliers(tau):
        gain = np.exp(eps * tau)
        return gain * np.exp(-tau * alpha * k2), gain * np.exp(-tau * np.conj(alpha) * k2)

    return multipliers


def cgl_nonlinear_map(params):
    beta = params.beta

    def apply(vw, tau):
        return _from_diagonal(_cubic(_to_diagonal(vw), tau, beta))

    return FlowMap(apply, EXACT_META)


def cgl_linear_map(params, grid):
    multipliers = _multipliers(params, grid)

    def apply(vw, tau):
        return _from_diagonal(_linear(_to_diagonal(vw), multipliers(tau)))

    return FlowMap(apply, EXACT_META)


def cgl_strang_flow(params, grid):
    """Splitting linear(tau/2), cubic(tau), linear(tau/2) on (v, w) arrays."""
    beta = params.beta
    multipliers = _multipliers(params, grid)

    def apply(vw, tau):
        half = multipliers(tau / 2.0)
        diag = _cubic(_linear(_to_diagonal(vw), half), tau, beta)
        return _from_diagonal(_linear(diag, half))

    return FlowMap(apply, STRANG_META)


def pulse_pair_profile(grid):
    """Two-bump initial field 0.8/cosh^2(x-10) + 0.8/cosh^2(x+10)."""
    x = grid.nodes
    return 0.8 / np.cosh(x - 10.0) ** 2 + 0.8 / np.cosh(x + 10.0) ** 2
