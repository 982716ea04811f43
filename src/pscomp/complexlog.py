"""Principal complex logarithm and the analytic continuation of r^{-3}.

The branch used everywhere in this package is the principal one,

    log(x + iy) = log|x + iy| + i atan2(y, x),

with imaginary part in (-pi, pi).  It is undefined on the closed negative
real axis; callers hitting the cut get a :class:`SingularityError` rather
than a silently wrong branch.  Callers rely on this one check and do not
repeat it.

``principal_log`` is one numpy formula for scalars and arrays (the
Ginzburg-Landau cubic substep takes it on whole grids).  A Python
``complex`` off the cut (a Kepler kick's ``1/r^3``) skips the log:
``analytic_inv_r3`` returns ``1 / (z sqrt(z))``, since the principal square
root has the same cut and ``z sqrt(z) = exp(1.5 log z)``.  Where that
formula underflows or overflows, the numpy formula gives the 0 or inf that
an array gets.
"""

import cmath

import numpy as np

from .errors import SingularityError


def principal_log(z):
    """Principal logarithm of a scalar or array, imaginary part in (-pi, pi).

    Raises :class:`SingularityError` on the closed negative real axis
    (including 0); for arrays the first offending flat index is reported.
    """
    arr = np.asarray(z, dtype=complex)
    on_cut = arr.real <= 0.0
    if on_cut.any():  # the imaginary test runs only when the real one hits
        on_cut = on_cut & (arr.imag == 0.0)
        if on_cut.any():
            idx = int(np.argmax(on_cut.ravel()))
            value = complex(arr.ravel()[idx])
            raise SingularityError(
                f"principal logarithm undefined on the negative real axis: z={value}",
                index=idx, value=value,
            )
    result = np.empty_like(arr)
    np.log(np.abs(arr), out=result.real)
    np.arctan2(arr.imag, arr.real, out=result.imag)
    if arr.ndim == 0:
        return complex(result)
    return result


def analytic_inv_r3(z):
    """Analytic continuation of ``z^{-3/2}``, i.e. of 1/r^3 for ``z = r^2``.

    ``1 / (z sqrt(z))`` for a Python ``complex`` off the cut, otherwise
    ``exp(-(3/2) principal_log(z))``; agrees with the real formula for real
    positive ``z`` and propagates the branch-cut error.
    """
    if type(z) is complex and not (z.imag == 0.0 and z.real <= 0.0):
        try:
            w = 1.0 / (z * cmath.sqrt(z))
        except ZeroDivisionError:  # |z|^1.5 underflows to 0
            pass
        else:
            # 0 or not finite: |z|^1.5 or its inverse overflowed
            if w and cmath.isfinite(w):
                return w
    return np.exp(-1.5 * principal_log(z))
