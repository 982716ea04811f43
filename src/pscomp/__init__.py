"""Composition integrators with complex time steps and real-axis projection.

Building blocks:

- :mod:`pscomp.coefficients` -- complex composition coefficients.
- :mod:`pscomp.flowmap` -- the ``(state, complex step) -> state`` flow map
  and its declared-order metadata.
- :mod:`pscomp.composition` -- schedules and the recursive family, whose
  every level is a conjugate-pair double jump projected on the real axis.
- :mod:`pscomp.problems` -- harmonic oscillator, Kepler, a semi-linear
  reaction-diffusion equation, and the complex Ginzburg-Landau equation
  as exact or split flow maps on plain arrays, plus the Strang and the
  fourth-order complex splitting builders.
- :mod:`pscomp.spectral` -- periodic grid and field snapshots.
- :mod:`pscomp.diagnostics` -- state series, power-law fits, and Taylor
  coefficients on a circle of complex steps.
- :mod:`pscomp.bench` -- named experiment presets with CSV/JSON output.
"""

from .coefficients import gamma_smallest_phase, gamma_triple_jump
from .composition import (
    RecursiveFamily, coefficient_arguments, compose_schedule, recursive_family,
)
from .complexlog import analytic_inv_r3, principal_log
from .errors import DomainError, NonFiniteError, SingularityError, ValidationError
from .flowmap import INFINITE_ORDER, STRANG_META, FlowMap, MethodMeta
from .spectral import SpectralGrid, write_snapshot

__version__ = "0.1.0"

__all__ = [
    "DomainError", "FlowMap", "NonFiniteError",
    "INFINITE_ORDER", "MethodMeta", "RecursiveFamily", "STRANG_META",
    "SingularityError", "SpectralGrid", "ValidationError",
    "analytic_inv_r3", "coefficient_arguments", "compose_schedule",
    "gamma_smallest_phase", "gamma_triple_jump", "principal_log",
    "recursive_family", "write_snapshot",
]
