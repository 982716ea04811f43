"""Composition combinators: schedules, projection, recursive family."""

import cmath
import math
import sys

import numpy as np
import pytest

from pscomp.coefficients import gamma_smallest_phase
from pscomp.composition import (
    _real_projection, coefficient_arguments, compose_schedule, recursive_family,
)
from pscomp.diagnostics import power_law_fit, slope_with_floor
from pscomp.errors import DomainError, ValidationError
from pscomp.flowmap import EXACT_META, FlowMap, MethodMeta
from pscomp.problems import (
    CGLParams, cgl_strang_flow, ho_drift_flow, ho_exact, ho_kick_flow,
    S4SIM_MAX_ARG, ho_strang_flow, kepler_initial_conditions, kepler_strang_flow,
    s4sim,
)
from pscomp.spectral import SpectralGrid

#: Declared orders of a bare conjugate pair on a second-order base.
PAIR_META = MethodMeta(order=3, pseudo_symmetry_order=3, pseudo_symplecticity_order=3)


def test_schedule_singleton_equals_base():
    base = ho_strang_flow()
    composed = compose_schedule(base, [1.0], base.meta)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        tau = complex(rng.normal(), rng.normal()) * 0.3
        np.testing.assert_array_equal(composed(x, tau), base(x, tau))


def test_schedule_rejects_inconsistent_sum():
    base = ho_strang_flow()
    with pytest.raises(ValidationError, match="sum"):
        compose_schedule(base, [0.6, 0.6], base.meta)


def test_schedule_rejects_empty_and_nonfinite():
    base = ho_strang_flow()
    with pytest.raises(ValidationError):
        compose_schedule(base, [], base.meta)
    with pytest.raises(ValidationError):
        compose_schedule(base, [complex(math.nan, 0.0)], base.meta)


def test_conjugate_pair_schedule_is_third_order():
    # Global error against the exact rotation at t = 1 falls like tau^3.
    g = gamma_smallest_phase(2)
    base = ho_strang_flow()
    method = compose_schedule(base, [g, g.conjugate()], PAIR_META)
    taus = 0.1 * 0.5 ** np.arange(6)
    errors = []
    for tau in taus:
        n = round(1.0 / tau)
        mat = np.eye(2, dtype=complex)
        step = method.matrix(tau)
        for _ in range(n):
            mat = step @ mat
        errors.append(np.max(np.abs(mat - ho_exact(1.0))))
    exponent = power_law_fit(taus, np.array(errors))[0]
    assert abs(exponent - 3.0) < 0.1


def test_real_projection_identity_is_exact():
    identity = FlowMap(lambda x, tau: x.copy(), EXACT_META)
    projected = recursive_family(identity, 1).levels[0]
    x = np.array([1.25, -0.5])
    out = projected(x, 0.3)
    np.testing.assert_array_equal(out.real, x)
    assert np.all(out.imag == 0.0)


def test_real_projection_idempotent_on_real_states():
    once = recursive_family(ho_strang_flow(), 1).levels[0]
    twice = FlowMap(_real_projection(once), once.meta)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2)
        tau = rng.uniform(0.01, 0.5)
        np.testing.assert_array_equal(once(x, tau), twice(x, tau))


def _kepler_pair():
    g = gamma_smallest_phase(2)
    return compose_schedule(kepler_strang_flow(), [g, g.conjugate()], PAIR_META)


@pytest.mark.parametrize("imag", [1e-6, 2e-14, 5e-15])
def test_real_projection_averages_mirror_for_complex_state_at_real_step(imag):
    # Any state that is not exactly real runs both mirror branches, even at
    # a real step: the projection is one holomorphic formula in the state.
    pair = _kepler_pair()
    x = kepler_initial_conditions(0.0).as_vector() + 1j * imag * np.array([0, 1, 1, 0])
    tau = complex(0.05)
    expected = 0.5 * (pair(x, tau) + np.conj(pair(np.conj(x), tau)))
    np.testing.assert_array_equal(_real_projection(pair)(x, tau), expected)


def test_real_projection_takes_real_part_for_real_state_at_real_step():
    pair = _kepler_pair()
    x = kepler_initial_conditions(0.6).as_vector()
    tau = complex(0.05)
    np.testing.assert_array_equal(_real_projection(pair)(x, tau), pair(x, tau).real)


def test_real_projection_output_has_zero_imaginary_part():
    projected = recursive_family(ho_strang_flow(), 1).levels[0]
    rng = np.random.default_rng(11)
    for _ in range(25):
        out = projected(rng.normal(size=2), rng.uniform(0.01, 0.8))
        assert np.all(out.imag == 0.0)


def test_recursive_family_strang_orders():
    family = recursive_family(ho_strang_flow(), 3)
    assert [lvl.meta.order for lvl in family.levels] == [4, 6, 7]
    assert family.capped == [False, False, True]


def test_recursive_family_s4sim_orders():
    base = s4sim(ho_drift_flow(), ho_kick_flow())
    family = recursive_family(base, 4)
    assert [lvl.meta.order for lvl in family.levels] == [6, 8, 10, 11]
    assert family.capped == [False, False, False, True]


@pytest.mark.parametrize("q, orders, capped", [
    (4, [4, 4, 4], [False, True, True]),
    (5, [4, 5, 5], [False, True, True]),
    (6, [4, 6, 6], [False, False, True]),
])
def test_recursive_family_pseudo_symmetric_base_caps_at_q(q, orders, capped):
    # A base pseudo-symmetric of finite order q caps every level at q.
    meta = MethodMeta(order=2, pseudo_symmetry_order=q,
                      pseudo_symplecticity_order=math.inf)
    family = recursive_family(FlowMap(lambda x, tau: x, meta), 3)
    assert [lvl.meta.order for lvl in family.levels] == orders
    assert family.capped == capped


def test_double_jump_uses_smallest_phase_coefficient():
    # Each level is the real part of a conjugate-pair double jump whose
    # coefficient is the smallest-phase gamma for the running order.
    base = ho_strang_flow()
    family = recursive_family(base, 2)
    g = gamma_smallest_phase(2)
    assert g == pytest.approx(complex(0.5, math.sqrt(3.0) / 6.0))
    pair = compose_schedule(base, [g, g.conjugate()], PAIR_META)
    x = np.array([0.3, -0.7], dtype=complex)
    np.testing.assert_allclose(family.levels[0](x, 0.1), pair(x, 0.1).real,
                               rtol=0.0, atol=1e-15)
    assert family.levels[0].meta.order == 4
    # Level 2 composes level 1 (order 4) with the order-4 coefficient.
    g4 = gamma_smallest_phase(4)
    assert family.coefficient_products[1] == [
        g4 * g, g4 * g.conjugate(), g4.conjugate() * g, g4.conjugate() * g.conjugate()]


def test_recursive_family_level1_products():
    family = recursive_family(ho_strang_flow(), 3)
    g = gamma_smallest_phase(2)
    assert family.coefficient_products[0] == [g, g.conjugate()]
    for i, products in enumerate(family.coefficient_products, start=1):
        assert len(products) == 2**i
        # closed under conjugation
        for p in products:
            assert any(abs(p.conjugate() - q) < 1e-15 for q in products)


def test_recursive_family_rejects_bad_base():
    odd = FlowMap(lambda x, tau: x, MethodMeta(order=3, pseudo_symmetry_order=math.inf,
                                               pseudo_symplecticity_order=3))
    with pytest.raises(DomainError):
        recursive_family(odd, 1)
    asymmetric = FlowMap(lambda x, tau: x, MethodMeta(order=2, pseudo_symmetry_order=3,
                                                      pseudo_symplecticity_order=2))
    with pytest.raises(DomainError):
        recursive_family(asymmetric, 1)
    with pytest.raises(DomainError):
        recursive_family(ho_strang_flow(), 0)


def test_recursive_family_measured_orders_on_oscillator():
    # Global-error slopes at t = 1 stay within 0.25 of the declared orders
    # for the first two levels.
    family = recursive_family(ho_strang_flow(), 3)
    taus = 0.2 * 0.5 ** np.arange(6)
    for level, flow in zip((1, 2), family.levels):
        errors = []
        for tau in taus:
            n = round(1.0 / tau)
            mat = np.eye(2, dtype=complex)
            step = flow.matrix(tau)
            for _ in range(n):
                mat = step @ mat
            errors.append(np.max(np.abs(mat - ho_exact(1.0))))
        slope = slope_with_floor(taus, np.array(errors), floor=1e-13)
        assert abs(slope - flow.meta.order) < 0.25, (level, slope)


def test_recursive_family_level3_order_via_one_step_truncation():
    # The level-3 global error on this window sits below the 64-bit
    # roundoff floor (its leading constant is ~5.8e-9), so the declared
    # order 7 is verified through the one-step truncation exponent 8 on
    # the larger-step window where the signal is clean.
    family = recursive_family(ho_strang_flow(), 3)
    level3 = family.levels[2]
    taus = 0.8 * 0.5 ** np.arange(6)
    errors = [np.max(np.abs(ho_exact(tau) - level3.matrix(tau))) for tau in taus]
    slope = slope_with_floor(taus, np.array(errors), floor=1e-13)
    assert slope >= 6.75 + 1.0, slope  # local exponent = global order + 1


def _gamma_argument_sum(orders):
    """Sum of |arg gamma| over the levels built on methods of these orders."""
    return sum(abs(cmath.phase(gamma_smallest_phase(k))) for k in orders)


def test_coefficient_arguments_strang_levels():
    family = recursive_family(ho_strang_flow(), 3)
    max_arg, all_positive = coefficient_arguments(family, 0.0)
    assert abs(max_arg - (math.pi / 2.0) * (71.0 / 105.0)) < 1e-12
    assert all_positive
    # The largest product argument is the sum of the levels' gamma arguments.
    assert abs(_gamma_argument_sum((2, 4, 6)) - max_arg) < 1e-15

    one_level = recursive_family(ho_strang_flow(), 1)
    max_arg, all_positive = coefficient_arguments(one_level, 0.0)
    assert abs(max_arg - math.pi / 6.0) < 1e-14
    assert all_positive


def test_coefficient_arguments_s4sim_levels():
    base = s4sim(ho_drift_flow(), ho_kick_flow())
    family = recursive_family(base, 4)
    max_arg, all_positive = coefficient_arguments(family, S4SIM_MAX_ARG)
    expected = math.acos(0.8) + (math.pi / 2.0) * (1888.0 / 3465.0)
    assert abs(max_arg - expected) < 1e-12
    assert max_arg < 0.96 * (math.pi / 2.0)
    assert all_positive
    assert abs(S4SIM_MAX_ARG + _gamma_argument_sum((4, 6, 8, 10)) - max_arg) < 1e-15


def test_method_meta_rejects_orders_below_classical():
    with pytest.raises(ValidationError):
        MethodMeta(order=4, pseudo_symmetry_order=3, pseudo_symplecticity_order=4)
    with pytest.raises(ValidationError):
        MethodMeta(order=4, pseudo_symmetry_order=4, pseudo_symplecticity_order=2)
    with pytest.raises(ValidationError):
        MethodMeta(order=0, pseudo_symmetry_order=0, pseudo_symplecticity_order=0)


def _cgl_level2_inputs(rng):
    # Six steps of a level-2 method need more multiplier pairs than the
    # linear flow caches, so the threads hit, fill and evict one cache.
    grid = SpectralGrid(-100.0, 200.0, 64)
    base = cgl_strang_flow(CGLParams(c1=1.0, c3=-2.0, eps=1.0), grid)
    taus = 0.01 * np.arange(1, 7)
    return recursive_family(base, 2).levels[1], [
        (0.5 * rng.normal(size=(2, 64)), rng.choice(taus)) for _ in range(64)]


def _kepler_level2_inputs(rng):
    x0 = kepler_initial_conditions(0.6).as_vector().real
    return recursive_family(kepler_strang_flow(), 2).levels[1], [
        (x0 + 0.05 * rng.normal(size=4), rng.uniform(0.01, 0.1)) for _ in range(64)]


def test_flow_maps_are_thread_safe():
    # One shared method evaluated concurrently must agree with serial runs.
    from concurrent.futures import ThreadPoolExecutor

    method = recursive_family(ho_strang_flow(), 2).levels[1]
    rng = np.random.default_rng(29)
    inputs = [(rng.normal(size=2), rng.uniform(0.01, 0.5)) for _ in range(64)]
    for method, inputs in ((method, inputs), _cgl_level2_inputs(rng),
                           _kepler_level2_inputs(rng)):
        serial = [method(x, tau) for x, tau in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                parallel = list(pool.map(lambda args: method(*args), inputs,
                                         timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a, b)
