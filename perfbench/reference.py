"""Reference kernel for normalising times to a fixed machine speed.

On a shared virtual machine the CPU's speed can drift by 20-35% over
seconds to minutes (measured on a 2-vCPU Intel Xeon VM).  The slowdown is global: three
unrelated kernels timed back to back (Python calls, 512-point FFTs,
2x2 matrix products) slow down together, with pairwise correlations of
0.9 and above.  Each timed ``run_preset`` call is therefore scaled by
``REFERENCE_S / r``, where ``r`` is the time of this kernel measured next
to the call.  The kernel is benchmark code that uses nothing of pscomp,
so no change to the program moves it.
"""

import time

import numpy as np

#: Nominal time of :func:`reference_seconds`; normalised times are the
#: seconds a sample would take on a host that runs the kernel this fast.
REFERENCE_S = 0.015


def _calls():
    def f(a, b):
        return a * b + 1

    s = 0
    for i in range(30_000):
        s = f(s % 7, i)
    return s


def _ffts():
    field = np.ones((2, 512), dtype=complex)
    for _ in range(150):
        field = np.fft.ifft(np.fft.fft(field, axis=-1), axis=-1)
    return field


def _small_products():
    mat = np.eye(2, dtype=complex)
    vec = np.ones(2, dtype=complex)
    for _ in range(4_000):
        vec = (mat @ vec).real.astype(complex)
    return vec


def reference_seconds():
    """Wall time of one fixed mix of interpreter, FFT and small-array work."""
    t0 = time.perf_counter()
    _calls()
    _ffts()
    _small_products()
    return time.perf_counter() - t0


class Normaliser:
    """Scales each sample by the reference kernel timed just before and after it."""

    def __init__(self):
        self.before = reference_seconds()
        self.factors = []

    def scale(self, seconds):
        after = reference_seconds()
        factor = REFERENCE_S / (0.5 * (self.before + after))
        self.before = after
        self.factors.append(factor)
        return seconds * factor
