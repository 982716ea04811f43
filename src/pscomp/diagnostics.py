"""Measurement harness: trajectory integration, energy-error series,
successive-error convergence estimates, one-step symmetry/symplecticity
defects, and the oscillator's truncation and defect cell.

Each measurement is one (method, tau) cell; the caller fits the series.
:func:`power_law_fit` is the free log-log least-squares slope; when that
slope sits near an integer it reads the coefficient at the second-smallest
step.  :func:`fit_leading_term` first discards samples below a roundoff
floor and narrows the window from the large-step end until the log-log
residual drops below a threshold (large steps carry higher-order
contamination); :func:`slope_with_floor` only applies its floor.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SingularityError, ValidationError
from .problems.harmonic import ho_exact

#: Discard error samples below this magnitude before fitting; one-step
#: quantities on O(1) states have a roundoff floor around 1e-16, and 100x
#: that keeps relative noise within a few percent.
ROUNDOFF_FLOOR = 1e-14

#: Largest acceptable max log deviation of a power-law fit before the
#: window is narrowed from the large-step end.
MAX_LOG_RESIDUAL = 0.02


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted ``error ~ coefficient * tau^exponent``.

    ``residual`` is the max absolute log-space deviation over the fitted
    samples (approximately the max relative deviation).
    """

    exponent: float
    coefficient: float
    residual: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 3:
            raise ValidationError("power-law fits need at least 3 samples")
        if self.residual < 0:
            raise ValidationError("residual must be non-negative")


def _steps(method, x, tau, n_steps):
    """Yield the state after each of ``n_steps`` steps from the complex array
    ``x``; a singularity is re-raised with its step index attached."""
    for i in range(n_steps):
        try:
            x = method(x, tau)
        except SingularityError as exc:
            exc.step = i
            raise
        yield x


def integrate(method, x0, tau, n_steps):
    """Real parts of the ``n_steps + 1`` states of ``method`` at fixed real
    step ``tau``, the start included, as one array (state k sits at time
    ``tau * k``; methods fed here are expected to project to real states).
    A singularity raised by any stage is re-raised with the step index.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    x = np.asarray(x0, dtype=complex)
    states = np.empty((n_steps + 1,) + x.shape, dtype=float)
    states[0] = x.real
    for i, x in enumerate(_steps(method, x, tau, n_steps), start=1):
        states[i] = np.asarray(x).real
    return states


def propagate(method, x0, tau, n_steps):
    """Final state after ``n_steps`` applications of ``method`` at step
    ``tau``; a singularity is re-raised with the step index."""
    x = np.asarray(x0, dtype=complex)
    for x in _steps(method, x, tau, n_steps):
        pass
    return x


def step_count(t_final, tau):
    """Steps of ``tau`` that reach ``t_final``, a positive whole multiple of
    ``tau`` up to rounding (relative 1e-12); anything else raises."""
    steps = t_final / tau
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(steps - n) > 1e-12 * steps:
        raise ValidationError(
            f"t_final={t_final} is not a positive integer multiple of tau={tau}")
    return n


def successive_error(method, x0, tau, t_final, coarse=None):
    """Sup-norm distance at ``t_final`` between the tau and tau/2 runs.

    The standard self-referencing convergence indicator: no exact solution
    is needed, and the distance scales like tau^p for an order-p method.
    Returns ``(distance, fine)`` with ``fine`` the final state of the
    tau/2 run; a caller that has the tau run's final state passes it as
    ``coarse`` (on a halving step list, the previous ``fine``)."""
    n = step_count(t_final, tau)
    coarse = propagate(method, x0, tau, n) if coarse is None else coarse
    fine = propagate(method, x0, tau / 2.0, 2 * n)
    return float(np.max(np.abs(coarse - fine))), fine


def _loglog_lsq(taus, errors):
    logs = np.log(taus)
    design = np.column_stack([logs, np.ones_like(logs)])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.log(errors), rcond=None)
    residual = float(np.max(np.abs(np.log(errors) - design @ [slope, intercept])))
    return float(slope), float(intercept), residual


def power_law_fit(taus, errors):
    """Fit ``errors ~ C tau^p`` by least squares on logarithms.

    When the fitted exponent lies near an integer, the coefficient is read
    off at the second-smallest sampled step (``C = e / tau^round(p)``)
    instead of the least-squares intercept: the intercept is biased by the
    higher-order contamination of the large-step samples, while the very
    smallest sample sits closest to the roundoff floor.
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.shape != errors.shape or taus.ndim != 1:
        raise DomainError("taus and errors must be 1-d arrays of equal length")
    if len(taus) < 3:
        raise DomainError(f"need at least 3 samples, got {len(taus)}")
    if np.any(taus <= 0) or np.any(errors <= 0):
        raise DomainError("taus and errors must be strictly positive")
    slope, intercept, residual = _loglog_lsq(taus, errors)
    nearest = round(slope)
    if nearest >= 1 and abs(slope - nearest) < 0.25:
        pick = np.argsort(taus)[1]
        coefficient = float(errors[pick] / taus[pick] ** nearest)
    else:
        coefficient = float(math.exp(intercept))
    return PowerLawFit(exponent=slope, coefficient=coefficient,
                       residual=residual, n_samples=len(taus))


def fit_leading_term(taus, values):
    """Power-law fit of ``|values|`` with floor filtering and large-step
    narrowing; the coefficient takes the sign of the real part of the first
    value above the floor, so a signed or complex series keeps its sign.

    Returns None when fewer than three samples survive the floor (the
    quantity is at roundoff level at this window).
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values)
    errors = np.abs(values)
    keep = np.isfinite(errors) & (errors > ROUNDOFF_FLOOR)
    if keep.sum() < 3:
        return None
    sign = float(np.sign(values[keep][0].real))
    order = np.argsort(taus[keep])[::-1]
    ts, es = taus[keep][order], errors[keep][order]
    while len(ts) > 3:
        _, _, residual = _loglog_lsq(ts, es)
        if residual <= MAX_LOG_RESIDUAL:
            break
        ts, es = ts[1:], es[1:]
    fit = power_law_fit(ts, es)
    return replace(fit, coefficient=sign * fit.coefficient)


def slope_with_floor(taus, errors, floor=ROUNDOFF_FLOOR):
    """Least-squares order estimate over above-floor samples.

    Falls back to the two-point slope when only two samples survive, and
    returns None below that.  Used for one-sided order bounds where deep
    convergence leaves few samples above roundoff.
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > floor)
    if keep.sum() >= 3:
        slope, _, _ = _loglog_lsq(taus[keep], errors[keep])
        return slope
    if keep.sum() == 2:
        ts, es = taus[keep], errors[keep]
        return float(np.log(es[0] / es[1]) / np.log(ts[0] / ts[1]))
    return None


def symmetry_defect(method, x0, tau):
    """Sup-norm displacement of the round trip ``psi_tau o psi_{-tau}`` from
    ``x0`` at one step ``tau``; pseudo-symmetry order q shows as a defect
    O(tau^(q+1)) over a range of steps."""
    x = np.asarray(x0, dtype=complex)
    return float(np.max(np.abs(method(method(x, -tau), tau) - x)))


def symplecticity_defect(method, x0, tau):
    """Max-abs entry of ``J^T S J - S`` at one step ``tau``, with S the
    canonical form and J the Jacobian at ``x0`` by central finite
    differences (relative step 1e-5 per component)."""
    x = np.asarray(x0, dtype=complex)
    dim = len(x)
    if dim % 2 != 0:
        raise DomainError("symplecticity needs an even-dimensional state")
    form = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dim // 2))
    jac = np.empty((dim, dim))
    for j in range(dim):
        h = 1e-5 * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = ((method(xp, tau) - method(xm, tau)) / (2.0 * h)).real
    return float(np.max(np.abs(jac.T @ form @ jac - form)))


def oscillator_defects(method, tau):
    """``(ho_exact(tau) - M(tau), max|M(tau) M(-tau) - I|, |det M(tau) - 1|)``
    of an oscillator method on ``[q, p]``: its truncation matrix and symmetry
    and determinant defects, from ``M(tau)`` and ``M(-tau)`` built once each.
    """
    forward, backward = method.matrix(tau), method.matrix(-tau)
    return (ho_exact(tau) - forward,
            float(np.max(np.abs(forward @ backward - np.eye(2)))),
            float(abs(np.linalg.det(forward) - 1.0)))


def energy_error_series(states, energy):
    """Relative energy error per recorded state, |H(x_k) - H(x_0)| / |H(x_0)|."""
    reference = energy(states[0])
    if reference == 0.0:
        raise DomainError("reference energy is zero; use an absolute error")
    values = np.array([energy(s) for s in states])
    return np.abs(values - reference) / abs(reference)


def envelope_growth(series):
    """``(plateau, envelope, growth)`` of an error series: the max over the
    leading and over the trailing 5% of the series, and their difference.

    The growth isolates secular drift from the bounded oscillatory
    component, which otherwise dominates the raw envelope at moderate times.
    """
    series = np.asarray(series, dtype=float)
    window = max(1, int(0.05 * len(series)))
    plateau = float(series[:window].max())
    envelope = float(series[-window:].max())
    return plateau, envelope, envelope - plateau
