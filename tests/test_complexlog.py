"""Principal logarithm and the analytic 1/r^3 continuation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pscomp.complexlog import analytic_inv_r3, principal_log
from pscomp.errors import SingularityError
from pscomp.problems import kepler_kick_flow

#: Off the cut, with |z| in [1e-200, 1e200] so that 1/r^3 stays a normal
#: float and relative errors are defined.
OFF_CUT = st.complex_numbers(min_magnitude=1e-200, max_magnitude=1e200).filter(
    lambda z: not (z.imag == 0.0 and z.real <= 0.0))
ON_CUT = st.builds(complex, st.floats(max_value=0.0, allow_nan=False),
                   st.sampled_from([0.0, -0.0]))
#: Inputs whose scalar ``abs`` or ``exp`` overflows; numpy gives 0 or inf.
OVERFLOW_INPUTS = [1.5e308 + 1.5e308j, 1e-250 + 0j, 1e-300 + 1e-300j]


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


def test_log_array_off_axis_negative_real_parts_do_not_raise():
    values = np.array([-1.0 + 1e-300j, -2.0 - 0.5j, 3.0, -0.0 + 1j], dtype=complex)
    expected = np.log(np.abs(values)) + 1j * np.arctan2(values.imag, values.real)
    np.testing.assert_array_equal(principal_log(values), expected)


def test_log_array_reports_the_cut_entry_after_off_axis_negative_ones():
    values = np.array([-1.0 + 1e-300j, -2.0 - 0.5j, 3.0, -0.0 + 1j, -4.0, -5.0],
                      dtype=complex)
    with pytest.raises(SingularityError) as excinfo:
        principal_log(values)
    assert (excinfo.value.index, excinfo.value.value) == (4, -4.0)


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


@given(OFF_CUT)
def test_scalar_path_matches_array_path(z):
    # numpy's abs and arctan2 differ from libm's by an ulp, which moves the
    # log by 1e-16 absolute and 1/r^3 by |log z| ulps relative.
    log_z = principal_log(np.array([z]))[0]
    scale = max(1.0, abs(log_z))
    assert abs(principal_log(z) - log_z) <= 1e-15 * scale
    inv = analytic_inv_r3(np.array([z]))[0]
    assert abs(analytic_inv_r3(z) - inv) <= 1e-15 * scale * abs(inv)
    assert isinstance(analytic_inv_r3(z), complex)


@given(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False).filter(
    lambda z: not (z.imag == 0.0 and z.real <= 0.0)), min_size=1, max_size=16))
@example(OVERFLOW_INPUTS)
def test_array_log_is_the_log_abs_plus_arctan2_formula(values):
    # Every finite magnitude is allowed, so |z| overflows to inf in some draws.
    z = np.array(values, dtype=complex)
    with np.errstate(over="ignore"):
        expected = np.log(np.abs(z)) + 1j * np.arctan2(z.imag, z.real)
        np.testing.assert_array_equal(principal_log(z), expected)


@given(st.floats(min_value=1e-60, max_value=1e60),
       st.floats(min_value=-math.pi / 2, max_value=math.pi / 2, exclude_min=True,
                 exclude_max=True))
def test_inv_r3_of_a_square_is_the_inverse_cube_of_its_root(r, theta):
    # z = (r e^{i theta})^2 with |theta| < pi/2 has principal root r e^{i theta},
    # so z^{-3/2} = r^{-3} e^{-3 i theta}; z carries a few ulps of rounding.
    root = r * cmath.exp(1j * theta)
    expected = r**-3 * cmath.exp(-3j * theta)
    assert abs(analytic_inv_r3(root * root) - expected) <= 2e-15 * abs(expected)


@given(OFF_CUT)
def test_inv_r3_of_the_conjugate_is_the_conjugate(z):
    # Exact, so the mirror branch of a real projection is the exact conjugate.
    assert analytic_inv_r3(z.conjugate()) == analytic_inv_r3(z).conjugate()


@given(ON_CUT)
def test_scalar_and_array_paths_raise_alike_on_the_cut(z):
    for fn in (principal_log, analytic_inv_r3):
        with pytest.raises(SingularityError) as scalar:
            fn(z)
        with pytest.raises(SingularityError) as array:
            fn(np.array([z]))
        assert (scalar.value.index, scalar.value.value) == (0, z)
        assert (array.value.index, array.value.value) == (0, z)


@pytest.mark.parametrize("z", OVERFLOW_INPUTS)
def test_scalar_overflow_gives_the_array_value(z):
    # Preset cells run with numpy's overflow warnings off, as here.
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (principal_log, analytic_inv_r3):
            np.testing.assert_array_equal(fn(z), fn(np.array([z]))[0])


def test_inv_r3_where_the_scalar_product_overflows_is_the_array_subnormal():
    # |z|^1.5 overflows to inf although z^{-3/2} is a subnormal, not 0.
    z = 10**205.5 * cmath.exp(2.5j)
    with np.errstate(under="ignore"):
        expected = analytic_inv_r3(np.array([z]))[0]
    assert expected != 0.0
    assert analytic_inv_r3(z) == expected


def test_kepler_kick_overflow_is_non_finite_not_an_error():
    x = np.array([1e-125, 0.0, 0.3, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = kepler_kick_flow()(x, 0.1)
    assert not np.all(np.isfinite(out[2:]))
    np.testing.assert_array_equal(out[:2], x[:2])
