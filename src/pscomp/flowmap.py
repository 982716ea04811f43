"""One-step integrator abstraction.

A flow map sends ``(state, step)`` to a new state, where the step may be
complex.  Everything in :mod:`pscomp.composition` builds new flow maps out
of old ones, so this is the unit the whole package composes.
"""

import math
from dataclasses import dataclass, field

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
    max_coeff_arg
        Largest |argument| among the complex step coefficients the method
        applies internally to its underlying flows (0 for real-coefficient
        methods).  The coefficient-argument audit reads only the base
        method's value; a family level adds its own arguments to it.
    """

    order: int
    pseudo_symmetry_order: float = field(default=None)
    pseudo_symplecticity_order: float = field(default=None)
    max_coeff_arg: float = 0.0

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError(f"order must be >= 1, got {self.order}")
        # A method of order k is pseudo-symmetric (and -symplectic) of
        # order at least k, so the declared values default to k.
        if self.pseudo_symmetry_order is None:
            object.__setattr__(self, "pseudo_symmetry_order", float(self.order))
        if self.pseudo_symplecticity_order is None:
            object.__setattr__(self, "pseudo_symplecticity_order", float(self.order))
        if self.pseudo_symmetry_order < self.order:
            raise ValidationError(
                f"pseudo-symmetry order {self.pseudo_symmetry_order} below order {self.order}"
            )
        if self.pseudo_symplecticity_order < self.order:
            raise ValidationError(
                f"pseudo-symplecticity order {self.pseudo_symplecticity_order} "
                f"below order {self.order}"
            )


#: Meta for an exact flow: symmetric and symplectic to all orders.  No
#: combinator reads the classical order of an exact flow (``strang`` and
#: ``s4sim`` read only the parts' pseudo-symplecticity order), so it is 2.
EXACT_META = MethodMeta(order=2, pseudo_symmetry_order=INFINITE_ORDER,
                        pseudo_symplecticity_order=INFINITE_ORDER)

#: Meta of the symmetric, symplectic second-order (Strang) splittings.
STRANG_META = MethodMeta(order=2, pseudo_symmetry_order=INFINITE_ORDER,
                         pseudo_symplecticity_order=INFINITE_ORDER)


class FlowMap:
    """A one-step integrator ``(state, step) -> state``.

    ``evaluator`` takes a complex ndarray state and a complex step and
    returns a new state of the same shape.  It may keep a bounded cache of
    read-only step constants and shares nothing else, and must not mutate
    its input, so one FlowMap can be applied from several threads at once.
    A flow map carries its evaluator, ``meta`` and ``name``, nothing else.
    """

    def __init__(self, evaluator, meta, name=""):
        self._evaluator = evaluator
        self.meta = meta
        self.name = name

    def __call__(self, state, tau):
        state = np.asarray(state, dtype=complex)
        return self._evaluator(state, complex(tau))

    def __repr__(self):
        label = self.name or "anonymous"
        return f"FlowMap({label}, order={self.meta.order})"

    def matrix(self, tau):
        """2x2 matrix of a map on the oscillator's ``(q, p)`` state at step ``tau``.

        Columns are the images of the canonical basis vectors, which is the
        exact matrix whenever the map is linear in the state.
        """
        eye = np.eye(2, dtype=complex)
        return np.column_stack([self(eye[:, j], tau) for j in range(2)])


def matrix_flow(mat_fn, meta, name=""):
    """Flow map acting by a step-dependent matrix, ``x -> M(tau) x``."""

    def apply(x, tau):
        return mat_fn(tau) @ x

    return FlowMap(apply, meta, name=name)
