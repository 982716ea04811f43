"""Principal logarithm and the analytic 1/r^3 continuation."""

import cmath
import math

import numpy as np
import pytest

from pscomp.complexlog import analytic_inv_r3, principal_log
from pscomp.errors import SingularityError


def test_log_of_one_is_zero():
    assert principal_log(1.0) == 0.0


def test_log_of_i():
    assert principal_log(1j) == pytest.approx(1j * math.pi / 2.0, abs=1e-15)


@pytest.mark.parametrize("z", [-1.0, 0.0, -2.5, complex(-3.0, 0.0)])
def test_log_branch_cut_raises(z):
    with pytest.raises(SingularityError, match="negative real axis"):
        principal_log(z)


def test_log_array_reports_offending_index():
    values = np.array([1.0, 2.0, -1.0, 4.0], dtype=complex)
    with pytest.raises(SingularityError) as excinfo:
        principal_log(values)
    assert excinfo.value.index == 2
    assert excinfo.value.value == -1.0


@pytest.mark.parametrize("z", [
    complex(-1.0, 1e-300), complex(-1.0, -1e-300),
    complex(-3.0, 1e-300), complex(-3.0, -1e-300),
    complex(-2.5, 5e-324), complex(-2.5, -5e-324),
    complex(1.0 + 1e-12, 1e-9),
])
def test_log_matches_cmath_near_cut_and_unit_circle(z):
    assert principal_log(z) == pytest.approx(cmath.log(z), abs=1e-15)


def test_log_exp_roundtrip_off_cut():
    rng = np.random.default_rng(123)
    z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    z = z[~((z.imag == 0.0) & (z.real <= 0.0))]
    logs = principal_log(z)
    assert np.max(np.abs(np.exp(logs) - z) / np.abs(z)) < 1e-14
    assert np.all(np.abs(logs.imag) < math.pi)


def test_log_matches_library_branch():
    rng = np.random.default_rng(5)
    z = rng.normal(size=200) + 1j * rng.normal(size=200)
    assert np.allclose(principal_log(z), np.log(z), atol=1e-14)


def test_inv_r3_real_positive():
    assert analytic_inv_r3(4.0) == pytest.approx(0.125, abs=1e-16)
    assert analytic_inv_r3(1.0) == pytest.approx(1.0, abs=1e-16)
    rng = np.random.default_rng(9)
    z = rng.uniform(0.1, 10.0, size=100)
    assert np.max(np.abs(analytic_inv_r3(z) - z**-1.5) / z**-1.5) < 1e-14


def test_inv_r3_modulus_identity():
    # |exp(-(3/2) log z)| depends only on |z|.
    assert abs(analytic_inv_r3(2j)) == pytest.approx(2.0**-1.5, rel=1e-14)


def test_inv_r3_propagates_branch_error():
    with pytest.raises(SingularityError):
        analytic_inv_r3(-1.0)


def test_log_scalar_type():
    out = principal_log(2.0 + 1.0j)
    assert isinstance(out, complex)
    assert out == pytest.approx(cmath.log(2.0 + 1.0j), abs=1e-15)
