"""Composition combinators: complex schedules, real-axis projection, and
the recursive family of projected conjugate-pair methods.

The central construction: given a symmetric base method of even order 2n,
compose it at the conjugate steps ``gamma*tau`` and ``conj(gamma)*tau``
(one extra order) and average the result with its coefficient-conjugated
mirror.  For a real vector field, step and state the average is simply the
real part of the output, so the projected method costs the same as the
unprojected one; at complex steps (as inside deeper recursion levels) or
states both mirror branches are evaluated.  Iterating the construction
raises the order by two per level until the pseudo-symmetry order caps it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import gamma_smallest_phase
from .errors import DomainError, ValidationError
from .flowmap import FlowMap, MethodMeta

COEFF_SUM_TOL = 1e-12


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


def _real_projection(method):
    """Evaluator averaging ``method`` with its coefficient-conjugated mirror.

    For a real vector field the mirror branch at step sigma equals
    ``conj(method(conj(x), conj(sigma)))``, so no explicit mirror method is
    needed.  When the step and the state are both exactly real the average
    is the real part of a single evaluation; any other input evaluates both
    branches, so the projection is holomorphic in the state at every step.
    """

    def project(x, tau):
        y = method(x, tau)
        if tau.imag == 0.0 and not x.imag.any():
            return y.real.astype(complex)
        mirror = np.conj(method(np.conj(x), tau.conjugate()))
        return 0.5 * (y + mirror)

    return project


def _level_meta(meta):
    """Declared orders of the projected conjugate pair built on ``meta``.

    With k the order and q the pseudo-symmetry order of the previous
    method, the pair gains one order and the projection one more, up to
    q: the new order is min(k + 2, q) and the new pseudo-symmetry and
    pseudo-symplecticity orders are capped at 2k + 3.  Once the order is
    capped (odd, equal to q) further levels keep it.
    """
    k, q = meta.order, meta.pseudo_symmetry_order
    return MethodMeta(
        order=int(min(k + 2, q)),
        pseudo_symmetry_order=min(q, 2 * k + 3),
        pseudo_symplecticity_order=min(q, meta.pseudo_symplecticity_order, 2 * k + 3),
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

    family_levels = []
    products = []
    capped_flags = []
    prev = base
    prev_products = [1.0 + 0.0j]
    for _ in range(levels):
        gamma = gamma_smallest_phase(prev.meta.order)
        meta = _level_meta(prev.meta)
        pair = compose_schedule(prev, (gamma, gamma.conjugate()), meta)
        level = FlowMap(_real_projection(pair), meta)
        prev_products = [gamma * p for p in prev_products] + [
            gamma.conjugate() * p for p in prev_products
        ]
        family_levels.append(level)
        products.append(list(prev_products))
        capped_flags.append(meta.order < prev.meta.order + 2)
        prev = level

    return RecursiveFamily(levels=family_levels, coefficient_products=products,
                           capped=capped_flags)


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
