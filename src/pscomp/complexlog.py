"""Principal complex logarithm and the analytic continuation of r^{-3}.

The branch used everywhere in this package is the principal one,

    log(x + iy) = log|x + iy| + i atan2(y, x),

with imaginary part in (-pi, pi).  It is undefined on the closed negative
real axis; callers hitting the cut get a :class:`SingularityError` rather
than a silently wrong branch.  Callers rely on this one check and do not
repeat it.

A Python ``complex`` (``np.complex128`` included) off the cut takes a
``math``/``cmath`` path, a fraction of the cost of a 0-d numpy call, equal
to the array formula up to roundoff; where a scalar ``abs`` or ``exp``
overflows, the numpy formula gives the inf or 0 that an array gets.
"""

import cmath
import math

import numpy as np

from .errors import SingularityError


def principal_log(z):
    """Principal logarithm of a scalar or array, imaginary part in (-pi, pi).

    Raises :class:`SingularityError` on the closed negative real axis
    (including 0); for arrays the first offending flat index is reported.
    """
    if isinstance(z, complex) and not (z.imag == 0.0 and z.real <= 0.0):
        try:
            return complex(math.log(abs(z)), math.atan2(z.imag, z.real))
        except OverflowError:  # |z| overflows; the array formula gives inf
            pass
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

    Computed as ``exp(-(3/2) principal_log(z))``; agrees with the real
    formula for real positive ``z`` and propagates the branch-cut error.
    """
    w = -1.5 * principal_log(z)
    if isinstance(w, complex):
        try:
            return cmath.exp(w)
        except OverflowError:  # numpy's exp gives inf
            return complex(np.exp(w))
    return np.exp(w)
