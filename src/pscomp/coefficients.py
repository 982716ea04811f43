"""Complex composition coefficients.

A two-stage composition of an order-k method with steps ``gamma*tau`` and
``conj(gamma)*tau`` gains one order when the coefficients satisfy the pair
of conditions ``gamma + conj(gamma) = 1`` and
``gamma^{k+1} + conj(gamma)^{k+1} = 0``.  This module provides the closed
forms for those coefficients and for the palindromic three-stage variant.
"""

import cmath
import math

from .errors import DomainError


def gamma_smallest_phase(k):
    """Coefficient for the conjugate two-stage composition of an order-k method.

    Returns ``gamma = 1/2 + (i/2) sin(a)/(1 + cos(a))`` with
    ``a = pi / (k + 1)``, that is ``1/2 + (i/2) tan(pi / (2(k+1)))``: of
    the complex solutions, the one with the smallest phase,
    ``pi / (2(k+1))``.  The conjugate pair ``(gamma, conj(gamma))`` sums
    to 1 and has vanishing (k+1)-th power sum.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    angle = math.pi / (k + 1)
    return complex(0.5, 0.5 * math.sin(angle) / (1.0 + math.cos(angle)))


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

