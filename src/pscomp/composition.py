"""Composition combinators: complex schedules, real-axis projection, and
the recursive family of projected conjugate-pair methods.

The central construction: given a symmetric base method of even order 2n,
compose it at the conjugate steps ``gamma*tau`` and ``conj(gamma)*tau``
(one extra order) and average the result with its twin, the same
composition with conjugated coefficients: for a self-conjugate inner
method, that method at the pair's two steps in swapped order; only a base
with complex coefficients needs ``conj`` around it.  For a real vector
field, step and state the average is the real part of the output, so the
projected method costs the same as the unprojected one; at complex steps
(inside deeper levels) or states both branches are evaluated.  Iterating
the construction raises the order by two per level until the
pseudo-symmetry order caps it.  On a base that evaluates stacks of states
(``MethodMeta.batched``) every level takes a stack too and forwards it
down, twice as wide wherever it evaluates both branches.  A level takes an
ODE state as a tuple of Python ``complex`` and returns a new tuple; a PDE
state is a complex array.  The tuple forms of the mirror average, the
real part and ``conj`` are generated once per state length from one
template, unrolled: a comprehension over the entries runs in a frame of
its own on Python 3.11, which made the ten mirror averages of a Kepler
level-3 step cost about 2.5 times their arithmetic.
"""

import cmath
import collections
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .coefficients import gamma_smallest_phase
from .errors import DomainError, ValidationError
from .flowmap import FlowMap, MethodMeta

COEFF_SUM_TOL = 1e-12
_HALF = 0.5 + 0j
_imag = operator.attrgetter("imag")


# A state is a tuple of Python complex (an ODE) or a complex array (a PDE);
# each form is read off the state itself, so a tuple is never concatenated.
def _is_real(x):
    return not any(map(_imag, x)) if type(x) is tuple else not np.count_nonzero(x.imag)


def _real_part(y):
    return _tuple_ops(len(y)).real_part(y) if type(y) is tuple else y.real.astype(complex)


def _average(u, v):
    if type(u) is tuple:
        return _tuple_ops(len(u)).average(u, v)
    return _HALF * (u + v)


def _conj(x):
    return _tuple_ops(len(x)).conj(x) if type(x) is tuple else np.conj(x)


# The tuple forms of the three helpers above, as (name, arguments, entry i).
_TUPLE_OPS = (
    ("average", "u, v", "_HALF * (u{i} + v{i})"),
    ("real_part", "u", "complex(u{i}.real)"),
    ("conj", "u", "u{i}.conjugate()"),
)
_TupleOps = collections.namedtuple("_TupleOps", [name for name, _, _ in _TUPLE_OPS])


@functools.cache
def _tuple_ops(n):
    """The ``_TUPLE_OPS`` functions on states of length ``n``, built on
    first use.  Each unpacks its arguments into locals and returns the
    tuple display of its entry at every index, so every output keeps the
    bits of the entry expression."""
    lines = []
    for name, args, entry in _TUPLE_OPS:
        lines.append(f"def {name}({args}):")
        lines += [f"    ({''.join(f'{a}{i}, ' for i in range(n))}) = {a}" for a in args.split(", ")]
        lines.append(f"    return ({''.join(entry.format(i=i) + ', ' for i in range(n))})")
    namespace = {}
    exec("\n".join(lines), {"_HALF": _HALF}, namespace)
    return _TupleOps(**namespace)


def compose_schedule(base, coefficients, meta):
    """Flow map applying ``base`` at the scheduled fractions of the step.

    The composed method applies ``base`` at steps ``c[-1]*tau, ...,
    c[0]*tau`` (the last coefficient acts first).  Coefficients must be
    finite and sum to 1 (consistency).
    """
    coeffs = tuple(complex(c) for c in coefficients)
    if not coeffs:
        raise ValidationError("schedule needs at least one coefficient")
    if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in coeffs):
        raise ValidationError("coefficients must be finite")
    residual = abs(sum(coeffs) - 1.0)
    if residual > COEFF_SUM_TOL:
        raise ValidationError(f"coefficients must sum to 1, residual {residual:.3e}")
    reversed_coeffs = coeffs[::-1]

    def apply(x, tau):
        for c in reversed_coeffs:
            x = base(x, c * tau)
        return x

    return FlowMap(apply, meta)


def _twin(method):
    """``conj(method(conj x, conj s))``: ``method`` itself when it is
    self-conjugate, else one flow map that runs it inside ``conj``."""
    if method.meta.self_conjugate:
        return method
    return FlowMap(lambda x, tau: _conj(method(_conj(x), tau.conjugate())), method.meta)


def _projected_level(prev, gamma):
    """Level built on ``prev``: its conjugate pair at ``(gamma, conj(gamma))``
    averaged with the twin, the same composition with conjugated
    coefficients.  With ``s1, s2 = conj(gamma) s, gamma s`` and ``twin =
    _twin(prev)``, built once, the level is ``_average(prev(prev(x, s1), s2),
    twin(twin(x, s2), s1))``, holomorphic in the state at every step.  A
    real step on a real state instead takes the real part of ``pair``, one
    flow map of those two ``prev`` calls (equal for a real vector field).

    On a batched self-conjugate ``prev`` the level takes a ``(B, ...)``
    stack with a tuple of B steps (a single call is a stack of one).  When
    every step and state is real it calls ``prev`` on the stack at each
    row's pair steps; otherwise it runs the pair and twin of all rows as one
    ``(2B, ...)`` stack, so widths multiply down the levels.  A real row of
    a mixed stack takes the twin branch; other rows match single calls."""
    meta = _level_meta(prev.meta)
    gamma_bar = gamma.conjugate()
    pair = FlowMap(lambda x, tau: prev(prev(x, gamma_bar * tau), gamma * tau), meta)
    twin = _twin(prev)

    def project(x, tau):
        if tau.imag == 0.0 and _is_real(x):
            return _real_part(pair(x, tau))
        first, second = gamma_bar * tau, gamma * tau
        return _average(prev(prev(x, first), second), twin(twin(x, second), first))

    def project_stack(x, tau):
        # Not a recursive call: a closure that refers to itself is a cycle,
        # which keeps a discarded family alive until a full collection.
        single = type(tau) is not tuple
        if single:
            x, tau = x[None], (tau,)
        first = tuple(gamma_bar * t for t in tau)
        second = tuple(gamma * t for t in tau)
        if not any(t.imag for t in tau) and _is_real(x):
            y = _real_part(prev(prev(x, first), second))
        else:
            y = prev(prev(np.concatenate((x, x)), first + second), second + first)
            y = _average(y[:len(tau)], y[len(tau):])
        return y[0] if single else y

    return FlowMap(project_stack if meta.batched else project, meta)


def _level_meta(meta):
    """Declared orders of the projected conjugate pair built on ``meta``.

    With k the order and q the pseudo-symmetry order of the previous
    method, the pair gains one order and the projection one more, up to
    q: the new order is min(k + 2, q) and the new pseudo-symmetry and
    pseudo-symplecticity orders are capped at 2k + 3.  Once the order is
    capped (odd, equal to q) further levels keep it.  A projected level is
    self-conjugate, so the next level takes it as its own twin, and it is
    batched when ``meta`` is both batched and self-conjugate.
    """
    k, q = meta.order, meta.pseudo_symmetry_order
    return MethodMeta(
        order=int(min(k + 2, q)),
        pseudo_symmetry_order=min(q, 2 * k + 3),
        pseudo_symplecticity_order=min(q, meta.pseudo_symplecticity_order, 2 * k + 3),
        self_conjugate=True,
        batched=meta.batched and meta.self_conjugate,
    )


@dataclass
class RecursiveFamily:
    """Projected conjugate-pair methods stacked on a symmetric base.

    ``levels[i]`` is the i+1-fold application of the double-jump /
    projection step; ``coefficient_products[i]`` lists the 2^(i+1) products
    of step-scaling factors with which the base method is evaluated inside
    that level; ``capped[i]`` marks levels whose declared order hit the
    pseudo-symmetry cap of the construction.
    """

    levels: list
    coefficient_products: list
    capped: list


def recursive_family(base, levels):
    """Build ``levels`` successive projected conjugate-pair methods.

    The base must be of even order 2n and symmetric (infinite
    pseudo-symmetry order) or at least pseudo-symmetric of order 2n+2.
    Orders rise by two per level until the pseudo-symmetry order of the
    running method caps them (e.g. 4, 6, 7 from a symmetric order-2 base);
    capped levels are flagged, not rejected.

    Level n is :func:`_projected_level` on level n-1 (the base for n = 1):
    ``0.5 * (pair(x, s) + twin(x, s))`` with ``pair`` the composition of
    level n-1 at ``(gamma, conj(gamma))`` and ``twin`` its
    coefficient-conjugated mirror.  Levels declare themselves
    self-conjugate, and ``batched`` on a batched self-conjugate base: then
    every level takes a stack, and a level-n call on B rows at complex
    steps reaches the base as stacks of 2^n B rows.
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    order = base.meta.order
    if order % 2 != 0:
        raise DomainError(f"recursive_family needs an even-order base, got {order}")
    if base.meta.pseudo_symmetry_order < order + 2:
        raise DomainError(
            "base must be symmetric or pseudo-symmetric of order at least "
            f"{order + 2}, got {base.meta.pseudo_symmetry_order}"
        )

    family_levels, products, capped_flags = [], [], []
    prev, prev_products = base, [1.0 + 0.0j]
    for _ in range(levels):
        gamma = gamma_smallest_phase(prev.meta.order)
        level = _projected_level(prev, gamma)
        prev_products = [c * p for c in (gamma, gamma.conjugate()) for p in prev_products]
        family_levels.append(level)
        products.append(prev_products)
        capped_flags.append(level.meta.order < prev.meta.order + 2)
        prev = level
    return RecursiveFamily(family_levels, products, capped_flags)


def coefficient_arguments(family, base_arg):
    """Largest |argument| over all base-method step coefficients of a family.

    ``base_arg`` is the largest |argument| among the base method's own
    internal coefficients (zero for a real-coefficient base such as Strang,
    ``S4SIM_MAX_ARG`` for ``s4sim``); it adds to that of the products.  The
    boolean is True when every coefficient has a positive real part, i.e.
    the maximum argument stays below pi/2.
    """
    max_product_arg = max(
        abs(cmath.phase(p)) for level in family.coefficient_products for p in level
    )
    max_arg = max_product_arg + base_arg
    return max_arg, max_arg < math.pi / 2
