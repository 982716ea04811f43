"""Measurement harness: trajectory integration, energy-error series,
successive-error convergence estimates, symmetry/symplecticity defects,
and leading-truncation-term extraction.

Fit protocol used throughout: samples below a roundoff floor are
discarded; the window is then narrowed from the large-step end until the
log-log least-squares residual drops below a threshold (large steps carry
higher-order contamination); the exponent is the free least-squares slope;
and when that slope sits near an integer the leading coefficient is read
off at the smallest surviving step, where contamination is weakest.
"""

import math
from dataclasses import dataclass

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
    for i in range(n_steps):
        try:
            x = method(x, tau)
        except SingularityError as exc:
            exc.step = i
            raise
        states[i + 1] = np.asarray(x).real
    return states


def propagate(method, x0, tau, n_steps):
    """Final state after ``n_steps`` applications of ``method`` at step ``tau``.

    A singularity is re-raised with the step index attached, as in
    :func:`integrate`.
    """
    x = np.asarray(x0, dtype=complex)
    for i in range(n_steps):
        try:
            x = method(x, tau)
        except SingularityError as exc:
            exc.step = i
            raise
    return x


def successive_error(method, x0, tau, t_final):
    """Sup-norm distance at ``t_final`` between the tau and tau/2 runs.

    The standard self-referencing convergence indicator: no exact solution
    is needed, and the distance scales like tau^p for an order-p method.
    Returns ``(distance, fine)`` with ``fine`` the final state of the
    tau/2 run.
    """
    steps = t_final / tau
    n = round(steps)
    if n < 1 or abs(steps - n) > 1e-9 * max(1.0, abs(steps)):
        raise ValidationError(
            f"t_final={t_final} is not an integer multiple of tau={tau}"
        )
    coarse = propagate(method, x0, tau, n)
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


def fit_leading_term(taus, errors):
    """Power-law fit with floor filtering and large-step narrowing.

    Returns None when fewer than three samples survive the floor (the
    quantity is at roundoff level at this window).
    """
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > ROUNDOFF_FLOOR)
    if keep.sum() < 3:
        return None
    order = np.argsort(taus[keep])[::-1]
    ts, es = taus[keep][order], errors[keep][order]
    while len(ts) > 3:
        _, _, residual = _loglog_lsq(ts, es)
        if residual <= MAX_LOG_RESIDUAL:
            break
        ts, es = ts[1:], es[1:]
    return power_law_fit(ts, es)


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


def symmetry_defect(method, x0, taus, matrix_dim=None):
    """Size of ``psi_tau o psi_{-tau} - id`` per step size, with fit.

    Returns ``(defects, fit)``: the defect per entry of ``taus`` and its
    :func:`fit_leading_term` fit (None at roundoff level).  With
    ``matrix_dim`` set the defect is the max-abs entry of
    ``M(tau) M(-tau) - I`` (for linear methods); otherwise it is the
    sup-norm displacement of the round trip started at ``x0``.  A method
    of pseudo-symmetry order q shows exponent >= q + 1.
    """
    taus = np.asarray(taus, dtype=float)
    defects = np.empty(len(taus))
    for i, tau in enumerate(taus):
        if matrix_dim is not None:
            roundtrip = method.matrix(tau, matrix_dim) @ method.matrix(-tau, matrix_dim)
            defects[i] = float(np.max(np.abs(roundtrip - np.eye(matrix_dim))))
        else:
            x = np.asarray(x0, dtype=complex)
            y = method(method(x, -tau), tau)
            defects[i] = float(np.max(np.abs(y - x)))
    return defects, fit_leading_term(taus, defects)


def _canonical_form(dim):
    half = dim // 2
    form = np.zeros((dim, dim))
    form[:half, half:] = np.eye(half)
    form[half:, :half] = -np.eye(half)
    return form


def _fd_jacobian(method, x, tau):
    dim = len(x)
    jac = np.empty((dim, dim))
    for j in range(dim):
        h = 1e-5 * max(1.0, abs(x[j]))
        xp = x.astype(complex).copy()
        xm = xp.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = ((method(xp, tau) - method(xm, tau)) / (2.0 * h)).real
    return jac


def symplecticity_defect(method, x0, taus, matrix_dim=None):
    """Deviation of the method's Jacobian from the symplectic identity.

    Returns ``(defects, fit)`` as :func:`symmetry_defect` does.  For 2x2
    matrix methods the defect is ``|det M(tau) - 1|``; in general the
    Jacobian is approximated by central finite differences (relative step
    1e-5 per component) and the defect is the max-abs entry of
    ``J^T S J - S`` with S the canonical form.
    """
    taus = np.asarray(taus, dtype=float)
    defects = np.empty(len(taus))
    for i, tau in enumerate(taus):
        if matrix_dim is not None:
            defects[i] = abs(np.linalg.det(method.matrix(tau, matrix_dim)) - 1.0)
        else:
            x = np.asarray(x0, dtype=complex)
            if len(x) % 2 != 0:
                raise DomainError("symplecticity needs an even-dimensional state")
            form = _canonical_form(len(x))
            jac = _fd_jacobian(method, x, tau)
            defects[i] = float(np.max(np.abs(jac.T @ form @ jac - form)))
    return defects, fit_leading_term(taus, defects)


def truncation_matrix_fit(method, taus):
    """Entrywise leading term of ``ho_exact(tau) - method.matrix(tau)``.

    ``method`` is a flow map on the oscillator's ``[q, p]``.  Returns a
    nested 2x2 list of :class:`PowerLawFit` with sign-carrying
    coefficients; entries that never rise above the roundoff floor are
    None (zero at this order).
    """
    taus = np.asarray(taus, dtype=float)
    diffs = np.array([ho_exact(tau) - method.matrix(tau) for tau in taus])
    fits = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            series = np.abs(diffs[:, i, j])
            fit = fit_leading_term(taus, series)
            if fit is None:
                continue
            above = series > ROUNDOFF_FLOOR
            sign = float(np.sign(diffs[above][0, i, j].real))
            fits[i][j] = PowerLawFit(
                exponent=fit.exponent,
                coefficient=sign * fit.coefficient,
                residual=fit.residual,
                n_samples=fit.n_samples,
            )
    return fits


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
