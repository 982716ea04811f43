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
three substeps in place on one array: every FFT and every substep
operation writes into an array the evaluation allocated, with the operands
in the order of the allocating formulas, so the results are the same bits.

The Strang kernel also takes a (B, 2, N) stack with a tuple of B steps:
its diagonal array is then (2, B, N), each FFT runs over the B rows of one
component, its multipliers are cached per tuple of steps (the last 8, a
level-3 step's 2^3), and every row gets the bits of a single call at its step.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..complexlog import principal_log
from ..flowmap import STRANG_META, FlowMap
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
    """Diagonal rows (vt, wt) of a (2, N) state, or (2, B, N) of a (B, 2, N) stack."""
    v, w = vw[..., 0, :], vw[..., 1, :]
    diag = np.empty((2, *v.shape), complex)
    diag[0] = 0.5 * (-1j * v + w)
    diag[1] = 0.5 * (v - 1j * w)
    return diag


def _from_diagonal(diag):
    """Inverse of :func:`_to_diagonal`."""
    dv, dw = diag
    vw = np.empty((*dv.shape[:-1], 2, dv.shape[-1]), complex)
    vw[..., 0, :] = 1j * dv + dw
    vw[..., 1, :] = dv + 1j * dw
    return vw


def _linear(diag, multipliers):
    """Linear substep in place on the diagonal rows: one FFT pair per component
    (over all rows of a stack) around one multiply by multipliers of their shape.

    The multiplier stays the first operand: for complex arrays ``m * a``
    and ``a * m`` can differ in the last bit.
    """
    for row in diag:
        np.fft.fft(row, out=row)
    np.multiply(multipliers, diag, out=diag)
    for row in diag:
        np.fft.ifft(row, out=row)
    return diag


def _cubic(diag, tau, beta):
    """Cubic substep in place on the diagonal rows; for a stack ``tau`` is
    the (B, 1) column of its steps."""
    z = np.multiply(4j, diag[0])  # 1.0 + 2.0 * tau * (4j * diag[0] * diag[1])
    np.multiply(z, diag[1], out=z)
    np.multiply(2.0 * tau, z, out=z)
    np.add(1.0, z, out=z)
    decay = principal_log(z)  # exp(-0.5 * beta * log z)
    np.multiply(-0.5 * beta, decay, out=decay)
    np.exp(decay, out=decay)
    diag[0] *= decay
    decay *= z  # exp(-(conj(beta)/2) log z) = 1 / (z exp(-(beta/2) log z))
    diag[1] /= decay
    return diag


def _multipliers(params, grid):
    """Step-cached Fourier multipliers of the linear flow at one step: a
    (2, N) array, one row per diagonal component."""
    alpha, eps = params.alpha, params.eps
    k2 = grid.wavenumbers() ** 2

    @step_cache
    def multipliers(tau):
        gain = np.exp(eps * tau)
        return gain * np.array((np.exp(-tau * alpha * k2), np.exp(-tau * np.conj(alpha) * k2)))

    return multipliers


def cgl_nonlinear_map(params):
    beta = params.beta

    def apply(vw, tau):
        return _from_diagonal(_cubic(_to_diagonal(vw), tau, beta))

    return FlowMap(apply, STRANG_META)


def cgl_linear_map(params, grid):
    multipliers = _multipliers(params, grid)

    def apply(vw, tau):
        return _from_diagonal(_linear(_to_diagonal(vw), multipliers(tau)))

    return FlowMap(apply, STRANG_META)


#: Strang meta of the Ginzburg-Landau kernel, which also evaluates stacks.
CGL_STRANG_META = replace(STRANG_META, batched=True)


def cgl_strang_flow(params, grid):
    """Splitting linear(tau/2), cubic(tau), linear(tau/2) on (v, w) arrays,
    or on a (B, 2, N) stack with a tuple of B steps."""
    beta = params.beta
    multipliers = _multipliers(params, grid)
    # Built from the single-step cache, never from itself: no reference cycle.
    stacked = step_cache(lambda steps: np.stack([multipliers(t / 2.0) for t in steps], axis=1), 8)

    def apply(vw, tau):
        if type(tau) is tuple:  # a stack: one step per state
            half = stacked(tau)
            tau = np.array(tau)[:, None]
        else:
            half = multipliers(tau / 2.0)
        diag = _cubic(_linear(_to_diagonal(vw), half), tau, beta)
        return _from_diagonal(_linear(diag, half))

    return FlowMap(apply, CGL_STRANG_META)


def pulse_pair_profile(grid):
    """Two-bump initial field 0.8/cosh^2(x-10) + 0.8/cosh^2(x+10)."""
    x = grid.nodes
    return 0.8 / np.cosh(x - 10.0) ** 2 + 0.8 / np.cosh(x + 10.0) ** 2
