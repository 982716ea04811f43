"""Coefficient formulas and their defining identities."""

import cmath
import math

import numpy as np
import pytest

from pscomp.coefficients import gamma_smallest_phase, gamma_triple_jump
from pscomp.errors import DomainError

#: gamma_smallest_phase(k) to the last bit, as sin/(1 + cos) gives it: the
#: coefficients of every family level, and so every preset output, rest on
#: these values.
SMALLEST_PHASE_BITS = {2: "0x1.279a74590331cp-2", 4: "0x1.4cb7bfb4961afp-3",
                       6: "0x1.d37150903fb55p-4"}


def test_double_jump_k2_matches_closed_form():
    g = gamma_smallest_phase(2)
    assert g == pytest.approx(complex(0.5, math.sqrt(3.0) / 6.0), abs=1e-15)


def test_double_jump_k4_smallest_branch():
    g = gamma_smallest_phase(4)
    assert g == pytest.approx(complex(0.5, math.tan(math.pi / 10.0) / 2.0), abs=1e-15)
    assert abs(g**5 + g.conjugate() ** 5) < 1e-14


def test_double_jump_rejects_bad_k():
    with pytest.raises(DomainError):
        gamma_smallest_phase(-1)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_smallest_phase_argument(k):
    g = gamma_smallest_phase(k)
    assert abs(cmath.phase(g) - math.pi / (2 * (k + 1))) < 1e-14
    assert g == complex(0.5, float.fromhex(SMALLEST_PHASE_BITS[k]))


def test_smallest_phase_rejects_bad_k():
    with pytest.raises(DomainError):
        gamma_smallest_phase(0)


def test_triple_jump_rejects_bad_k():
    with pytest.raises(DomainError, match="k must be >= 1"):
        gamma_triple_jump(0)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_triple_jump_residual(k):
    g1, g2 = gamma_triple_jump(k)
    assert abs(2.0 * g1 ** (k + 1) + g2 ** (k + 1)) < 1e-13
    assert g2 == 1.0 - 2.0 * g1  # exact by construction


@pytest.mark.parametrize("k", [2, 4])
def test_triple_jump_has_smallest_phase_among_complex_roots(k):
    # Oracle: enumerate all solutions of 2 z^{k+1} + (1 - 2z)^{k+1} = 0 by
    # polynomial root-finding and compare phases of the non-real ones.
    n = k + 1
    poly = np.zeros(n + 1, dtype=complex)
    poly[0] = 2.0
    for j in range(n + 1):
        # coefficient of z^j in (1 - 2z)^n, stored highest power first
        poly[n - j] += math.comb(n, j) * (-2.0) ** j
    roots = np.roots(poly)
    complex_roots = [r for r in roots if abs(r.imag) > 1e-10]
    assert complex_roots, "expected complex solutions"
    g1, _ = gamma_triple_jump(k)
    min_phase = min(abs(cmath.phase(r)) for r in complex_roots)
    assert abs(cmath.phase(g1)) <= min_phase + 1e-9

