"""One-step integrator abstraction.

A flow map sends ``(state, step)`` to a new state, where the step may be
complex.  Everything in :mod:`pscomp.composition` builds new flow maps out
of old ones, so this is the unit the whole package composes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

INFINITE_ORDER = math.inf


@dataclass(frozen=True)
class MethodMeta:
    """Declared orders of a method.

    order
        Classical convergence order k (global error O(tau^k)).
    pseudo_symmetry_order
        Largest q such that the adjoint agrees with the method up to
        O(tau^{q+1}).  ``math.inf`` for exactly symmetric methods.
    pseudo_symplecticity_order
        Largest r such that the Jacobian satisfies the symplecticity
        identity up to O(tau^{r+1}).  ``math.inf`` for symplectic methods.
    """

    order: int
    pseudo_symmetry_order: float
    pseudo_symplecticity_order: float

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError(f"order must be >= 1, got {self.order}")
        for label, value in (("symmetry", self.pseudo_symmetry_order),
                             ("symplecticity", self.pseudo_symplecticity_order)):
            if value < self.order:
                raise ValidationError(f"pseudo-{label} order {value} below order {self.order}")


#: Meta for an exact flow: symmetric and symplectic to all orders.  No
#: combinator reads the meta of a stage flow, so the order is nominally 2.
EXACT_META = MethodMeta(order=2, pseudo_symmetry_order=INFINITE_ORDER,
                        pseudo_symplecticity_order=INFINITE_ORDER)

#: Meta of the symmetric, symplectic second-order (Strang) splittings.
STRANG_META = MethodMeta(order=2, pseudo_symmetry_order=INFINITE_ORDER,
                         pseudo_symplecticity_order=INFINITE_ORDER)


class FlowMap:
    """A one-step integrator ``(state, step) -> state``.

    A call hands ``evaluator`` the caller's state and step unconverted.
    The entry points convert once: ``integrate``/``propagate``,
    ``symplecticity_defect`` and :meth:`matrix` pass a complex ndarray, and
    the step is a Python ``complex`` or ``float`` (both have ``.imag`` and
    ``.conjugate()``).  An object-dtype (mpmath) state is not supported: it
    runs at f64, reads as exactly real, and the real projection keeps its
    imaginary part, silently.
    The evaluator returns a new state of the same shape.  It may keep a
    bounded cache of read-only step constants and shares nothing else, and
    must not mutate its input, so one FlowMap can be applied from several
    threads at once.  A flow map carries its evaluator and ``meta``.
    """

    def __init__(self, evaluator, meta):
        self._evaluator = evaluator
        self.meta = meta

    def __call__(self, state, tau):
        return self._evaluator(state, tau)

    def matrix(self, tau):
        """2x2 matrix of a map on the oscillator's ``(q, p)`` state at step ``tau``.

        Columns are the images of the canonical basis vectors, which is the
        exact matrix whenever the map is linear in the state.
        """
        eye = np.eye(2, dtype=complex)
        return np.column_stack([self(eye[:, j], tau) for j in range(2)])

