"""Fourth-order complex splitting: coefficients and measured order."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from pscomp.diagnostics import power_law_fit
from pscomp.flowmap import INFINITE_ORDER, STRANG_META
from pscomp.problems import (
    S4SIM_A, S4SIM_B, S4SIM_MAX_ARG, ho_drift_flow, ho_exact, ho_kick_flow,
    s4sim, strang,
)
from pscomp.problems.splitting import S4SIM_A_FRACTIONS, S4SIM_B_FRACTIONS


def test_coefficient_sums_exact_rational():
    assert sum(S4SIM_A_FRACTIONS) == Fraction(1)
    (b1_re, b1_im), (b2_re, b2_im), (b3_re, b3_im) = S4SIM_B_FRACTIONS
    # palindrome: b1 and b2 appear twice
    assert 2 * (b1_re + b2_re) + b3_re == Fraction(1)
    assert 2 * (b1_im + b2_im) + b3_im == Fraction(0)


def test_max_argument_is_arccos_four_fifths():
    max_arg = max(abs(cmath.phase(b)) for b in S4SIM_B)
    assert abs(max_arg - math.acos(4.0 / 5.0)) < 1e-12


def test_b_coefficients_have_positive_real_parts():
    assert all(b.real > 0 for b in S4SIM_B)
    assert all(a > 0 for a in S4SIM_A)


def test_strang_builder_matches_oscillator_matrix():
    method = strang(ho_drift_flow(), ho_kick_flow())
    tau = 0.3 + 0.2j
    x = np.array([0.7, -1.1], dtype=complex)
    # D(tau/2) K(tau) D(tau/2) from the closed-form shears of drift and kick
    drift = np.array([[1.0, tau / 2], [0.0, 1.0]])
    kick = np.array([[1.0, 0.0], [-tau, 1.0]])
    assert np.max(np.abs(method(x, tau) - drift @ kick @ drift @ x)) < 1e-15
    assert method.meta is STRANG_META


def test_palindromic_symmetry_on_oscillator():
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    rng = np.random.default_rng(19)
    for _ in range(10):
        tau = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3))
        roundtrip = method.matrix(-tau) @ method.matrix(tau)
        assert np.max(np.abs(roundtrip - np.eye(2))) < 1e-13


def test_meta():
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    assert method.meta.order == 4
    assert method.meta.pseudo_symmetry_order == INFINITE_ORDER
    assert method.meta.pseudo_symplecticity_order == INFINITE_ORDER
    assert S4SIM_MAX_ARG == pytest.approx(math.acos(0.8))


def test_fourth_order_on_oscillator():
    method = s4sim(ho_drift_flow(), ho_kick_flow())
    taus = 0.2 * 0.5 ** np.arange(6)
    errors = []
    for tau in taus:
        n = round(1.0 / tau)
        mat = np.eye(2, dtype=complex)
        step = method.matrix(tau)
        for _ in range(n):
            mat = step @ mat
        errors.append(np.max(np.abs(mat - ho_exact(1.0))))
    exponent = power_law_fit(taus, errors)[0]
    assert abs(exponent - 4.0) < 0.15
