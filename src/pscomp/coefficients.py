"""Complex composition coefficients.

A two-stage composition of an order-k method with steps ``gamma*tau`` and
``conj(gamma)*tau`` gains one order when the coefficients satisfy the pair
of conditions ``gamma + conj(gamma) = 1`` and
``gamma^{k+1} + conj(gamma)^{k+1} = 0``.  This module provides the closed
forms for those coefficients, for the palindromic three-stage variant, and
the residuals of the two conditions for arbitrary coefficient lists.
"""

import cmath
import math

from .errors import DomainError


def _admissible_ell(k):
    # Admissible branch indices depend on the parity of k.
    if k % 2 == 0:
        return -k // 2, k // 2 - 1
    return -(k + 1) // 2, (k - 1) // 2


def gamma_double_jump(k, ell):
    """Coefficient for the conjugate two-stage composition of an order-k method.

    Returns ``gamma = 1/2 + (i/2) sin(a)/(1 + cos(a))`` with
    ``a = (2*ell + 1) pi / (k + 1)``.  The conjugate pair
    ``(gamma, conj(gamma))`` sums to 1 and has vanishing (k+1)-th power sum.
    ``ell`` selects among the finitely many complex solutions.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    lo, hi = _admissible_ell(k)
    if not lo <= ell <= hi:
        raise DomainError(
            f"ell={ell} outside the admissible interval [{lo}, {hi}] for k={k}"
        )
    angle = (2 * ell + 1) * math.pi / (k + 1)
    return complex(0.5, 0.5 * math.sin(angle) / (1.0 + math.cos(angle)))


def gamma_smallest_phase(k):
    """The double-jump coefficient with the smallest phase (``ell = 0``).

    Equals ``1/2 + (i/2) tan(pi / (2(k+1)))``; its argument is
    ``pi / (2(k+1))``.
    """
    return gamma_double_jump(k, 0)


def gamma_triple_jump(k):
    """Coefficients ``(gamma1, gamma2)`` of the palindromic three-stage composition.

    The symmetric scheme ``S_{g1 tau} o S_{g2 tau} o S_{g1 tau}`` raises a
    symmetric order-k method (k even) by two orders.  Writing the ratio
    ``rho = g2/g1``, the defining conditions ``2 g1 + g2 = 1`` and
    ``2 g1^{k+1} + g2^{k+1} = 0`` force ``rho^{k+1} = -2``; the root of -2
    nearest the positive real axis gives the complex solution with the
    smallest phase,

        g1 = e^{i pi/(k+1)} / (2^{1/(k+1)} + 2 e^{i pi/(k+1)}),  g2 = 1 - 2 g1.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    root = cmath.exp(1j * math.pi / (k + 1))
    g1 = root / (2.0 ** (1.0 / (k + 1)) + 2.0 * root)
    g2 = 1.0 - 2.0 * g1
    return g1, g2


def order_condition_residuals(coefficients, k):
    """Residuals of the two order-raising conditions for an order-k base.

    Returns ``(sum(g) - 1, sum(g^{k+1}))``; both vanish exactly when the
    composition raises the order.
    """
    coefficients = list(coefficients)
    if not coefficients:
        raise DomainError("coefficient list must be non-empty")
    total = sum(coefficients)
    power = sum(complex(g) ** (k + 1) for g in coefficients)
    return total - 1.0, power
