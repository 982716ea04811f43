"""Uniform periodic 1D grid and field snapshots.

The PDE problems transform with numpy's DFT pair (forward unnormalized,
inverse scaled by 1/N) on power-of-two grids.  The Nyquist mode is kept
with wavenumber ``-pi N / L``; every operator applied in mode space is
diagonal, so no symmetrization is needed.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _is_power_of_two(n):
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid ``x_j = start + j L / N``, ``j = 0..N-1``."""

    domain_start: float
    domain_length: float
    n_points: int

    def __post_init__(self):
        if self.domain_length <= 0:
            raise ValidationError(f"domain length must be positive, got {self.domain_length}")
        if not _is_power_of_two(self.n_points):
            raise ValidationError(
                f"n_points must be a power of two >= 2, got {self.n_points}"
            )

    @property
    def nodes(self):
        j = np.arange(self.n_points)
        return self.domain_start + j * self.domain_length / self.n_points

    @property
    def spacing(self):
        return self.domain_length / self.n_points

    def wavenumbers(self):
        """Angular wavenumbers ``2 pi m / L`` in standard DFT ordering.

        The Nyquist mode is kept negative (``-pi N / L``).
        """
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)


def step_cache(fn, maxsize=64):
    """Memoise ``fn(key) -> array`` for the last ``maxsize`` keys; calls share
    the array, so it is read-only.  Level L calls its base at 2^L steps per
    step size, so 64 single steps hold a stack of B <= 8 sizes up to level 3."""
    @functools.lru_cache(maxsize=maxsize)
    def cached(key):
        array = fn(key)
        array.flags.writeable = False
        return array
    return cached


def write_snapshot(grid, values, path):
    """Write samples on ``grid`` as plain-text rows ``x value_re value_im``."""
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n_points,):
        raise ValidationError(
            f"field length {values.shape} does not match grid size ({grid.n_points},)"
        )
    text = "".join(f"{x:.16e} {v.real:.16e} {v.imag:.16e}\n"
                   for x, v in zip(grid.nodes.tolist(), values.tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
