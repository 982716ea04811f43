"""Measurement harness: trajectory integration, energy-error series,
one-step symplecticity defects, and Taylor coefficients of a one-step
series on a circle of complex steps.

Each measurement is one (method, tau) cell; the caller fits the series.
:func:`power_law_fit` is the free log-log least-squares slope; when that
slope sits near an integer it reads the coefficient at the second-smallest
step.  :func:`slope_with_floor` only applies its floor.  A one-step series
whose leading power is the claim is not fitted but read off its Taylor
coefficients (:func:`taylor_coefficients`, :func:`leading_term`).
"""

import math

import numpy as np

from .errors import DomainError, NonFiniteError, SingularityError, ValidationError

#: Discard error samples (and Taylor terms c_k rho^k) below this magnitude:
#: 100x the roundoff of one-step quantities on O(1) states (about 1e-16).
ROUNDOFF_FLOOR = 1e-14


def _start(x0, n_steps):
    """``x0`` as a tuple of Python complex when it is a tuple (an ODE state),
    else as a complex array, once ``n_steps`` is checked to be at least 1."""
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    return tuple(map(complex, x0)) if type(x0) is tuple else np.asarray(x0, dtype=complex)


def _steps(method, x, tau, n_steps):
    """Yield the state after each of ``n_steps`` steps from the state ``x``;
    a singularity is re-raised with its step index attached."""
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
    ``tau * k``; methods fed here are expected to project to real states),
    read once after the last step off one complex array of the raw states.
    A singularity raised by any stage is re-raised with the step index; a
    nan or inf state, found in one pass after the last step, raises
    :class:`NonFiniteError` with the step that produced it."""
    x = _start(x0, n_steps)
    states = np.array([x, *_steps(method, x, tau, n_steps)], dtype=complex).real
    finite = np.isfinite(states).reshape(n_steps + 1, -1).all(axis=1)
    if not finite.all():
        raise NonFiniteError(step=int(np.argmin(finite)) - 1)
    return states


def propagate(method, x0, tau, n_steps):
    """Final state after ``n_steps`` applications of ``method`` at step
    ``tau``; a singularity is re-raised with the step index.  A nan or inf
    final state raises :class:`NonFiniteError` with the first step that
    produced one, found by walking the same steps again."""
    x = start = _start(x0, n_steps)
    for x in _steps(method, start, tau, n_steps):
        pass
    if not np.isfinite(x).all():
        bad = (i for i, y in enumerate(_steps(method, start, tau, n_steps))
               if not np.isfinite(y).all())
        raise NonFiniteError(step=next(bad, None))
    return x


def propagate_stacked(method, x0, runs):
    """Yield ``(tau, final state)`` of each ``(tau, n_steps)`` run of a
    batched ``method`` from ``x0`` as that run finishes, all runs stepping
    as the rows of one stack: rows go by decreasing step count, so the
    running rows are a prefix and each iteration makes one stacked call.
    The generator is lazy: it steps only when the caller asks for the next
    state.  A singularity propagates without a step index, and a row that
    finishes with a nan or inf raises :class:`NonFiniteError` without one;
    :func:`propagate` on that run finds the step."""
    runs = sorted(runs, key=lambda run: -run[1])
    taus, counts = tuple(tau for tau, _ in runs), [n for _, n in runs]
    x = np.repeat(_start(x0, min(counts))[None], len(runs), axis=0)
    live = len(runs)
    for i in range(1, counts[0] + 1):
        x = method(x, taus[:live])
        while live and counts[live - 1] == i:
            live -= 1
            if not np.isfinite(x[live]).all():
                raise NonFiniteError()
            yield taus[live], x[live]
        x = x[:live]


def step_count(t_final, tau):
    """Steps of ``tau`` that reach ``t_final``, a positive whole multiple of
    ``tau`` up to rounding (relative 1e-12); anything else raises."""
    steps = t_final / tau if tau else math.inf  # a halved subnormal step can be 0
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(steps - n) > 1e-12 * steps:
        raise ValidationError(
            f"t_final={t_final} is not a positive integer multiple of tau={tau}")
    return n


def _loglog_lsq(taus, errors):
    logs = np.log(taus)
    design = np.column_stack([logs, np.ones_like(logs)])
    (slope, intercept), *_ = np.linalg.lstsq(design, np.log(errors), rcond=None)
    residual = float(np.max(np.abs(np.log(errors) - design @ [slope, intercept])))
    return float(slope), float(intercept), residual


def power_law_fit(taus, errors):
    """``(exponent, coefficient, residual)`` of ``errors ~ C tau^p`` fitted by
    least squares on logarithms; ``residual`` is the max absolute log-space
    deviation over the samples (about the max relative deviation).

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
    return slope, coefficient, residual


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


def symplecticity_defect(method, x0, tau):
    """``J^T S J - S`` at one step ``tau``, with S the canonical form and J
    the Jacobian at ``x0``: column j is c_1 of the Taylor series of
    ``s -> method(x0 + s e_j, tau)`` on a circle of radius 1e-2 (16 nodes),
    each state passed as a tuple."""
    x = np.asarray(x0, dtype=complex)
    if x.ndim != 1 or len(x) % 2 != 0:
        raise DomainError("symplecticity needs an even-dimensional vector state")
    dim = len(x)
    form = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(dim // 2))
    jac = np.column_stack([taylor_coefficients(
        lambda ss: [method(tuple((x + s * e).tolist()), tau) for s in ss.tolist()], 1e-2, 16)[1]
        for e in np.eye(dim)])
    return jac.T @ form @ jac - form


def taylor_coefficients(f, rho, n):
    """``c_0 .. c_(n-1)``: the mean of ``f(tau_j) tau_j**-k`` over the n (even)
    nodes ``tau_j = rho exp(2 pi i (j + 1/2) / n)``, as one FFT along the first
    axis of ``f(nodes)``.  No node is real, so a real projection inside ``f``
    runs its holomorphic mirror branch, and node ``j + n/2`` is exactly
    ``-node j``.  ``f`` must be analytic on the disc of radius ``rho``; c_k
    carries roundoff of about ``eps max|f| / rho**k``."""
    half = rho * np.exp(2j * np.pi * (np.arange(n // 2) + 0.5) / n)
    values = np.asarray(f(np.concatenate([half, -half])))
    k = np.arange(n).reshape((n,) + (1,) * (values.ndim - 1))
    return np.fft.fft(values, axis=0) * np.exp(-1j * np.pi * k / n) / (n * rho**k)


def leading_term(coefficients, rho):
    """``(degree, coefficient, noise)`` of the first term ``max|c_k| rho**k``
    above :data:`ROUNDOFF_FLOOR`, or None when every term is at roundoff:
    ``noise`` is the largest term below the degree over the leading one.
    ``coefficient`` is the real part of the largest entry of c_degree, with
    the sign of the first entry (flat order) that equals it or its negative
    to 1e-6 relative, so roundoff does not pick the sign of a +- pair (the
    Kepler level-3 symplecticity pair differs by 1e-7 relative)."""
    terms = (np.abs(coefficients).reshape(len(coefficients), -1).max(axis=1)
             * rho ** np.arange(len(coefficients)))
    above = np.flatnonzero(terms > ROUNDOFF_FLOOR)
    if not len(above):
        return None
    degree = int(above[0])
    entries = coefficients[degree].reshape(-1)
    noise = float(terms[:degree].max() / terms[degree]) if degree else 0.0
    largest = entries[np.argmax(np.abs(entries))]
    gap = np.minimum(np.abs(entries - largest), np.abs(entries + largest))
    first = entries[np.argmax(gap <= 1e-6 * abs(largest))]
    return degree, math.copysign(largest.real, first.real), noise


def energy_error_series(states, energy):
    """Relative energy error per recorded state, |H(x_k) - H(x_0)| / |H(x_0)|,
    from one call of ``energy`` on the whole ``(n + 1, d)`` stack."""
    values = energy(states)
    if values[0] == 0.0:
        raise DomainError("reference energy is zero; use an absolute error")
    return np.abs(values - values[0]) / abs(values[0])


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
