"""One-step integrator abstraction.

A flow map sends ``(state, step)`` to a new state, where the step may be
complex.  Everything in :mod:`pscomp.composition` builds new flow maps out
of old ones, so this is the unit the whole package composes.
"""

import functools
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
    self_conjugate
        True when the method equals its coefficient-conjugated twin,
        ``conj(S(conj x, conj tau)) == S(x, tau)``: a real-coefficient
        splitting of a real vector field, or a projected level.  False
        (the default) for a base with complex coefficients such as
        ``s4sim``.  The next level reads it, on the base and on every
        level alike, to build its twin once: the method itself when it is
        self-conjugate, else the method inside ``conj``.
    batched
        True when the evaluator also takes a stack: a ``(B, ...)`` state
        with a tuple of B steps, one per state, returning the B results
        stacked, each with the bits of a single call at its step.  The
        Ginzburg-Landau Strang kernel declares it, and so does every
        projected level built on a batched self-conjugate method: such a
        level forwards a stack to the method below it, running the pair
        and the twin of all its rows as one stack of twice the width.  An
        order run steps the distinct step sizes of a batched method as the
        rows of one stack.  False (the default) for every other method.
    """

    order: int
    pseudo_symmetry_order: float
    pseudo_symplecticity_order: float
    self_conjugate: bool = False
    batched: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValidationError(f"order must be >= 1, got {self.order}")
        for label, value in (("symmetry", self.pseudo_symmetry_order),
                             ("symplecticity", self.pseudo_symplecticity_order)):
            if value < self.order:
                raise ValidationError(f"pseudo-{label} order {value} below order {self.order}")


#: Meta of the symmetric, symplectic second-order (Strang) splittings, and
#: of the exact and stage flows they compose: no combinator reads a stage
#: flow's meta, so its order is nominally 2.
STRANG_META = MethodMeta(order=2, pseudo_symmetry_order=INFINITE_ORDER,
                         pseudo_symplecticity_order=INFINITE_ORDER, self_conjugate=True)


class FlowMap(functools.partial):
    """A one-step integrator ``(state, step) -> state``.

    A flow map is a ``functools.partial`` of its evaluator with ``meta`` in
    its instance dict, so a call enters the evaluator from C, with no
    Python frame of its own.  ``__call__`` is a class attribute (the
    partial's own slot), so it can be reassigned on the class, as a call
    counter does, and a subclass may override it.
    A call hands the evaluator the caller's state and step unconverted.
    A state is an ODE's tuple of Python ``complex`` (the oscillator's
    ``(q, p)``, Kepler's ``(q1, q2, p1, p2)``) or a PDE's complex ndarray,
    and the step is a Python ``complex`` or ``float`` (both have ``.imag``
    and ``.conjugate()``).  The entry points convert once:
    ``integrate``/``propagate`` turn a tuple into a tuple of ``complex`` and
    anything else into a complex ndarray, and ``symplecticity_defect`` and
    :meth:`matrix` pass tuples.  An ODE kernel handed an ndarray unpacks it
    into numpy scalars and returns a tuple, equal to the tuple call's to
    roundoff.  A tuple of mpmath scalars does not keep its digits:
    ``analytic_inv_r3``'s array fallback and the real projection's
    ``complex(v.real)`` drop it to f64.
    A ``(B, ...)`` stack of states with a tuple of B steps is passed only
    to a flow map whose meta declares ``batched``; such a flow map takes a
    single state and step as well.
    The evaluator returns a new state of the same form and shape.  It may
    keep a bounded cache of read-only step constants and shares nothing
    else, and may write in place only into arrays it allocated itself, never
    into its input or a cached constant, so one FlowMap can be applied from
    several threads at once.  ``func`` is the evaluator.  A flow map cannot
    be copied or pickled: the partial's ``__reduce__`` rebuilds it without
    ``meta``.
    """

    def __new__(cls, evaluator, meta):
        self = super().__new__(cls, evaluator)
        self.meta = meta
        return self

    __call__ = functools.partial.__call__

    def matrix(self, tau):
        """2x2 matrix of a map on the oscillator's ``(q, p)`` state at step ``tau``.

        Columns are the images of the canonical basis vectors, which is the
        exact matrix whenever the map is linear in the state.
        """
        return np.column_stack([self((1 + 0j, 0j), tau), self((0j, 1 + 0j), tau)])

