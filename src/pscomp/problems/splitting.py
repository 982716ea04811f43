"""Symmetric splittings built from the exact flows of f = f_a + f_b.

``strang`` is the second-order palindrome a(tau/2) b(tau) a(tau/2), the
base method of the reaction-diffusion problem; the oscillator, Kepler and
Ginzburg-Landau problems run the same palindrome as one-pass kernels.
``s4sim`` is the fourth-order one with complex coefficients,
the nine-stage palindrome

    b(b1) a(1/4) b(b2) a(1/4) b(b3) a(1/4) b(b2) a(1/4) b(b1)

(applied left to right) with b1 = 1/10 - i/30, b2 = 4/15 + 2i/15,
b3 = 4/15 - i/5.  All coefficients have positive real part; the largest
|argument| among them is arccos(4/5) (attained by b3).  Its evaluator
computes each of its four distinct stage steps once, keeps them for up to
64 complex steps, and makes the nine stage calls as one expression.
"""

import math
from fractions import Fraction

from ..flowmap import INFINITE_ORDER, STRANG_META, FlowMap, MethodMeta

#: Exact rational coefficient data; the complex values below derive from it.
S4SIM_A_FRACTIONS = (Fraction(1, 4),) * 4
S4SIM_B_FRACTIONS = (
    (Fraction(1, 10), Fraction(-1, 30)),
    (Fraction(4, 15), Fraction(2, 15)),
    (Fraction(4, 15), Fraction(-1, 5)),
)

S4SIM_A = tuple(float(a) for a in S4SIM_A_FRACTIONS)
S4SIM_B = tuple(complex(float(re), float(im)) for re, im in S4SIM_B_FRACTIONS)

#: Largest |argument| among the b coefficients, arccos(4/5).
S4SIM_MAX_ARG = math.acos(4.0 / 5.0)


def strang(flow_a, flow_b):
    """Second-order symmetric splitting a(tau/2), b(tau), a(tau/2)."""

    def apply(x, tau):
        half = tau / 2.0
        return flow_a(flow_b(flow_a(x, half), tau), half)

    return FlowMap(apply, STRANG_META)


def s4sim(flow_a, flow_b):
    """Fourth-order symmetric method from the exact flows of a splitting.

    ``flow_a`` and ``flow_b`` must be the exact flows of the two parts; the
    palindromic arrangement then gives a symmetric method of order 4, and a
    composition of exact flows declares infinite q and r.  The largest
    |argument| of its coefficients is ``S4SIM_MAX_ARG``.  The four ``a``
    coefficients are equal and ``b1``, ``b2`` appear twice, so a call computes
    its four distinct stage steps ``coeff * tau`` once (kept for up to 64
    ``complex`` steps) and makes the nine stage calls as one expression.
    """
    a, b = flow_a, flow_b
    (b1, b2, b3), quarter = S4SIM_B, S4SIM_A[0]
    memo = {}

    def apply(x, tau):
        steps = memo.get(tau) if type(tau) is complex else None
        if steps is None:
            steps = b1 * tau, b2 * tau, b3 * tau, quarter * tau
            if type(tau) is complex and tau.real and tau.imag:  # ±0.0 parts compare equal
                if len(memo) >= 64:  # >=: two threads may insert at once
                    memo.clear()
                memo[tau] = steps
        s1, s2, s3, h = steps
        return b(a(b(a(b(a(b(a(b(x, s1), h), s2), h), s3), h), s2), h), s1)

    return FlowMap(apply, MethodMeta(order=4, pseudo_symmetry_order=INFINITE_ORDER,
                                     pseudo_symplecticity_order=INFINITE_ORDER))
