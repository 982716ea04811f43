"""Composition combinators: schedules, projection, recursive family."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pscomp.bench.run import ExperimentConfig, _problem_setup
from pscomp.coefficients import gamma_smallest_phase
from pscomp.composition import (
    _HALF, _average, _conj as _conj_state, _is_real, _real_part, _tuple_ops, _twin,
    coefficient_arguments, compose_schedule, recursive_family,
)
from pscomp.diagnostics import power_law_fit, slope_with_floor
from pscomp.errors import DomainError, ValidationError
from pscomp.flowmap import STRANG_META, FlowMap, MethodMeta
from pscomp.problems import (
    CGLParams, cgl_strang_flow, ho_drift_flow, ho_exact, ho_kick_flow,
    S4SIM_MAX_ARG, ho_strang_flow, kepler_initial_conditions, kepler_strang_flow,
    s4sim,
)
from pscomp.spectral import SpectralGrid

#: Declared orders of a bare conjugate pair on a second-order base.
PAIR_META = MethodMeta(order=3, pseudo_symmetry_order=3, pseudo_symplecticity_order=3)


def _conj(x):
    """Conjugate of a state in its own form: a tuple of Python complex (an
    ODE state) or a complex array (a PDE state)."""
    return tuple(v.conjugate() for v in x) if type(x) is tuple else np.conj(x)


def _perturbed(x0, rng):
    """``x0 + 0.05 (N + iN)`` with normal draws N, in the form of ``x0``."""
    shape = np.shape(x0)
    x = np.asarray(x0) + 0.05 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return tuple(x.tolist()) if type(x0) is tuple else x


def test_schedule_singleton_equals_base():
    base = ho_strang_flow()
    composed = compose_schedule(base, [1.0], base.meta)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = tuple((rng.normal(size=2) + 1j * rng.normal(size=2)).tolist())
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
    identity = FlowMap(lambda x, tau: x.copy(), STRANG_META)
    projected = recursive_family(identity, 1).levels[0]
    x = np.array([1.25, -0.5])
    out = projected(x, 0.3)
    np.testing.assert_array_equal(out.real, x)
    assert np.all(out.imag == 0.0)


def test_real_projection_idempotent_on_real_states():
    # Projecting a level once more (the mirror average of the level and its
    # conjugate) leaves it unchanged.
    once = recursive_family(ho_strang_flow(), 1).levels[0]
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = tuple(map(complex, rng.normal(size=2)))
        tau = rng.uniform(0.01, 0.5)
        twice = 0.5 * (np.asarray(once(x, tau)) + np.conj(once(_conj(x), tau)))
        np.testing.assert_array_equal(once(x, tau), twice)


def _kepler_pair():
    g = gamma_smallest_phase(2)
    return compose_schedule(kepler_strang_flow(), [g, g.conjugate()], PAIR_META)


def _kepler_level1():
    return recursive_family(kepler_strang_flow(), 1).levels[0]


@pytest.mark.parametrize("imag", [1e-6, 2e-14, 5e-15])
def test_real_projection_averages_mirror_for_complex_state_at_real_step(imag):
    # Any state that is not exactly real runs both mirror branches, even at
    # a real step: the projection is one holomorphic formula in the state.
    pair = _kepler_pair()
    x = tuple((kepler_initial_conditions(0.0).as_vector()
               + 1j * imag * np.array([0, 1, 1, 0])).tolist())
    tau = complex(0.05)
    expected = 0.5 * (np.asarray(pair(x, tau)) + np.conj(pair(_conj(x), tau)))
    np.testing.assert_array_equal(_kepler_level1()(x, tau), expected)


def test_real_projection_takes_real_part_for_real_state_at_real_step():
    pair = _kepler_pair()
    x = tuple(kepler_initial_conditions(0.6).as_vector().tolist())
    tau = complex(0.05)
    np.testing.assert_array_equal(_kepler_level1()(x, tau), np.asarray(pair(x, tau)).real)


@pytest.mark.parametrize("problem, base_method", [
    ("harmonic", "strang"), ("harmonic", "s4sim"), ("kepler", "strang")])
@settings(max_examples=40, deadline=None)
@given(tau=st.one_of(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3).map(complex)),
       scale=st.floats(-0.05, 0.05), seed=st.integers(0, 2**32 - 1))
def test_ode_levels_at_real_steps_on_real_states_equal_their_pairs_real_part(
        problem, base_method, tau, scale, seed):
    # The real branch of every ODE level, 1-3: the real part of the
    # composed conjugate pair on the level below, bit for bit.
    base, _, x0 = _setup(problem, base_method)
    x = tuple(map(complex, (np.asarray(x0).real
                            + scale * np.random.default_rng(seed).normal(size=len(x0)))))
    family = recursive_family(base, 3).levels
    for n, (prev, level) in enumerate(zip([base] + family, family), 1):
        g = gamma_smallest_phase(prev.meta.order)
        want = _real_part(compose_schedule(prev, (g, g.conjugate()), level.meta)(x, tau))
        got = level(x, tau)
        assert type(got) is tuple and np.array(got).tobytes() == np.array(want).tobytes(), n


def test_real_projection_output_has_zero_imaginary_part():
    projected = recursive_family(ho_strang_flow(), 1).levels[0]
    rng = np.random.default_rng(11)
    for _ in range(25):
        out = np.asarray(projected(tuple(map(complex, rng.normal(size=2))),
                                   rng.uniform(0.01, 0.8)))
        assert np.all(out.imag == 0.0)


def _old_formula_levels(base, levels):
    """Levels built as ``0.5 * (pair(x, s) + conj(pair(conj x, conj s)))``,
    in numpy and in the form of ``x``."""
    out, prev = [], base
    for meta in (lvl.meta for lvl in recursive_family(base, levels).levels):
        g = gamma_smallest_phase(prev.meta.order)
        pair = compose_schedule(prev, (g, g.conjugate()), meta)

        def level(x, s, pair=pair):
            y = 0.5 * (np.asarray(pair(x, s)) + np.conj(pair(_conj(x), s.conjugate())))
            return tuple(y.tolist()) if type(x) is tuple else y

        prev = FlowMap(level, meta)
        out.append(prev)
    return out


#: (problem, base method, levels, relative tolerance); 0 compares bytes.
#: The FFT kernels are self-conjugate only to roundoff.
OLD_FORMULA_CASES = [
    ("kepler", "strang", 3, 0.0), ("harmonic", "strang", 3, 0.0),
    ("harmonic", "s4sim", 3, 0.0), ("cgl", "strang", 2, 1e-13),
    ("fisher", "strang", 2, 1e-13),
]


def _setup(problem, base_method):
    return _problem_setup(ExperimentConfig(problem=problem, base_method=base_method,
                                           grid_points=32))


@pytest.mark.parametrize("problem, base_method, levels, rtol", OLD_FORMULA_CASES)
@settings(max_examples=40, deadline=None)
@given(radius=st.floats(0.005, 0.1), angle=st.floats(-0.4, 0.4),
       seed=st.integers(0, 2**32 - 1))
def test_levels_equal_the_old_mirror_formula(problem, base_method, levels, rtol,
                                             radius, angle, seed):
    # Complex steps and complex states run both branches at every level.
    base, _, x0 = _setup(problem, base_method)
    rng = np.random.default_rng(seed)
    x = _perturbed(x0, rng)
    sigma = cmath.rect(radius, angle)
    new = recursive_family(base, levels).levels
    for n, (level, oracle) in enumerate(zip(new, _old_formula_levels(base, levels)), 1):
        got, want = np.asarray(level(x, sigma)), np.asarray(oracle(x, sigma))
        if rtol == 0.0:
            assert got.tobytes() == want.tobytes(), n
        else:
            assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), n


def _explicit_average(prev, meta, x, s):
    """``0.5 * (pair(x, s) + twin(x, s))`` of the level built on ``prev``,
    with ``pair`` and ``twin`` both ``compose_schedule`` compositions: the
    twin at the conjugated coefficients, on ``prev`` itself when it is
    self-conjugate and else on its mirror ``conj(prev(conj x, conj s))``."""
    g = gamma_smallest_phase(prev.meta.order)
    mirror = prev if prev.meta.self_conjugate else FlowMap(
        lambda y, t: _conj(prev(_conj(y), t.conjugate())), prev.meta)
    pair = compose_schedule(prev, (g, g.conjugate()), meta)
    twin = compose_schedule(mirror, (g.conjugate(), g), meta)
    return 0.5 * (np.asarray(pair(x, s)) + twin(x, s))


@pytest.mark.parametrize("problem, base_method, levels", [
    ("kepler", "strang", 3), ("harmonic", "strang", 3), ("harmonic", "s4sim", 2),
    ("kepler", "strang", 4), ("cgl", "strang", 2)])
def test_levels_at_complex_steps_equal_their_composed_pair_and_twin(problem, base_method,
                                                                    levels):
    # A level on a self-conjugate method calls it at the swapped steps
    # instead of composing a twin; s4sim's level 1 takes the conj branch.
    # The batched CGL levels take a single call as a stack of one.
    base, _, x0 = _setup(problem, base_method)
    family = recursive_family(base, levels).levels
    rng = np.random.default_rng(31)
    for _ in range(10):
        sigma = cmath.rect(rng.uniform(0.01, 0.1), rng.uniform(-0.4, 0.4))
        x = _perturbed(x0, rng)
        for state in (x0, x):
            for n, (prev, level) in enumerate(zip([base] + family, family), 1):
                want = _explicit_average(prev, level.meta, state, sigma)
                assert np.asarray(level(state, sigma)).tobytes() == want.tobytes(), n


@pytest.mark.parametrize("problem", ["harmonic", "kepler", "cgl"])
def test_twin_is_a_self_conjugate_method_itself_or_the_method_inside_conj(problem):
    # A level's twin is built once: the self-conjugate Strang base and every
    # level are their own twins; s4sim's twin runs it inside conj, with the
    # bits of conj(s4sim(conj x, conj t)) on a tuple and on a (2, N) array.
    strang, _, x0 = _setup(problem, "strang")
    assert _twin(strang) is strang
    level = recursive_family(strang, 1).levels[0]
    assert _twin(level) is level
    base, _, _ = _setup(problem, "s4sim")
    twin = _twin(base)
    assert twin is not base and twin.meta is base.meta
    rng = np.random.default_rng(43)
    for x in (x0, _perturbed(x0, rng)):
        for t in (cmath.rect(0.05, 0.3), cmath.rect(0.02, -0.7), 0.05):
            want = _conj(base(_conj(x), t.conjugate()))
            got = twin(x, t)
            assert type(got) is type(x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


#: Real and imaginary parts whose products by 0.5 and 0.0 round, vanish or
#: turn into nan: signed zeros, infinities, nans and subnormals.
SPECIAL_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                     5e-324, -5e-324, 3e-308, -1.5e-323]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(st.tuples(SPECIAL_PARTS, SPECIAL_PARTS), min_size=1, max_size=8))
def test_cached_half_multiplies_with_the_bits_of_a_python_half(parts):
    # Tuples, arrays and stacks all average with one Python complex 0.5;
    # numpy runs a Python 0.5 through the same complex multiply, so every
    # bit, nan and sign included, is the same.
    s = np.array([complex(re, im) for re, im in parts])
    with np.errstate(invalid="ignore", over="ignore"):
        assert (_HALF * s).tobytes() == (0.5 * s).tobytes()
    assert type(_HALF) is complex and _HALF == 0.5


def _assert_same_bits(got, want, zero_sign_free=None):
    """A tuple of Python complex equal to a complex array part by part, bit for
    bit, except that (b) NaN payloads are free (any NaN matches any NaN) and
    (a) the sign of a zero is free where ``zero_sign_free`` holds that part's
    component of A + B and it is +-5e-324, whose half underflows to a zero
    whose sign depends on whether numpy's loop fuses the multiply-add."""
    assert type(got) is tuple and all(type(v) is complex for v in got)
    assert len(got) == len(want)
    free = zero_sign_free.tolist() if zero_sign_free is not None else [0j] * len(got)
    for g, w, f in zip(got, want.tolist(), free):
        for a, b, c in ((g.real, w.real, f.real), (g.imag, w.imag, f.imag)):
            if math.isnan(a) or math.isnan(b):
                assert math.isnan(a) and math.isnan(b)
            elif a == 0.0 and b == 0.0 and abs(c) == 5e-324:
                continue
            else:
                assert math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


@settings(max_examples=400, deadline=None)
@given(parts=st.lists(st.tuples(SPECIAL_PARTS, SPECIAL_PARTS, SPECIAL_PARTS, SPECIAL_PARTS),
                      min_size=1, max_size=8))
def test_tuple_state_operations_equal_their_array_forms(parts):
    # An ODE level runs its real-state test, real part, mirror average and
    # conj twin on tuples of Python complex; each equals the complex-array
    # form a PDE level runs, on signed zeros, infinities, nans and subnormals.
    # The last three are generated per state length and built once.
    u = tuple(complex(a, b) for a, b, _, _ in parts)
    v = tuple(complex(c, d) for _, _, c, d in parts)
    arr_u, arr_v = np.array(u), np.array(v)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _is_real(u) is (not np.count_nonzero(arr_u.imag)) is _is_real(arr_u)
        _assert_same_bits(_real_part(u), arr_u.real.astype(complex))
        _assert_same_bits(_conj_state(u), np.conj(arr_u))
        _assert_same_bits(_average(u, v), _HALF * (arr_u + arr_v), arr_u + arr_v)
    assert _is_real((0j, complex(1.0, -0.0))) and not _is_real((complex(0.0, math.nan),))
    assert _tuple_ops(len(u)).average is _tuple_ops(len(u)).average


@pytest.mark.parametrize("problem", ["harmonic", "kepler"])
@pytest.mark.parametrize("base_method", ["strang", "s4sim"])
@pytest.mark.parametrize("tau", [0.05, cmath.rect(0.05, 0.3)], ids=["real", "complex"])
def test_ode_levels_given_an_array_return_the_tuple_result(problem, base_method, tau):
    # The mirror average and the real part read the form of the states they
    # combine, which the ODE kernels return as tuples, so an array handed to
    # a level never concatenates two tuples into a state of twice the length.
    base, _, x0 = _setup(problem, base_method)
    rng = np.random.default_rng(37)
    for x in (x0, _perturbed(x0, rng)):
        for n, level in enumerate(recursive_family(base, 3).levels, 1):
            want = np.asarray(level(x, tau))
            got = level(np.array(x), tau)
            assert type(got) is tuple and len(got) == len(x), n
            assert np.asarray(got).shape == want.shape == (len(x),), n
            assert np.max(np.abs(np.asarray(got) - want)) <= 1e-15 * np.max(np.abs(want)), n


@pytest.mark.parametrize("problem", ["harmonic", "kepler"])
@pytest.mark.parametrize("base_method", ["strang", "s4sim"])
def test_ode_kernels_and_levels_return_tuples_of_python_complex(problem, base_method):
    base, _, x0 = _setup(problem, base_method)
    rng = np.random.default_rng(41)
    methods = [base, *recursive_family(base, 2).levels]
    for x in (x0, _perturbed(x0, rng)):
        for tau in (0.05, cmath.rect(0.05, 0.3)):
            for method in methods:
                y = method(x, tau)
                assert type(y) is tuple and len(y) == len(x)
                assert all(type(v) is complex for v in y)


@pytest.mark.parametrize("grid_points", [32, 512])
@settings(max_examples=25, deadline=None)
@given(step=st.one_of(st.floats(0.005, 0.1),
                      st.builds(cmath.rect, st.floats(0.005, 0.1), st.floats(-0.4, 0.4))),
       perturbed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_cgl_levels_equal_the_unbatched_family_bit_for_bit(grid_points, step,
                                                                   perturbed, seed):
    # The same kernel under a meta without ``batched`` runs every pair and
    # twin one after the other; a real step on a real state takes the
    # pair's real part at level 1 and stacks the level-1 calls of levels 2-3.
    base, _, x0 = _problem_setup(ExperimentConfig(problem="cgl", base_method="strang",
                                                  grid_points=grid_points))
    assert base.meta.batched
    x = np.asarray(x0, complex)
    if perturbed:
        rng = np.random.default_rng(seed)
        x = x + 0.05 * (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
    stacked = recursive_family(base, 3).levels
    unbatched = recursive_family(FlowMap(base.func, STRANG_META), 3).levels
    for n, (level, oracle) in enumerate(zip(stacked, unbatched), 1):
        assert level(x, step).tobytes() == oracle(x, step).tobytes(), n


@pytest.mark.parametrize("grid_points", [32, 512])
@settings(max_examples=15, deadline=None)
@given(radii=st.lists(st.floats(0.005, 0.1), min_size=1, max_size=4),
       args=st.lists(st.floats(-0.4, 0.4).filter(bool), min_size=4, max_size=4),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_cgl_levels_run_a_stack_as_its_single_calls(grid_points, radii, args,
                                                            real, seed):
    # A (B, 2, N) stack at B steps equals B single calls at every level: at
    # mixed complex steps on complex states (the pair and twin of all rows as
    # one 2B stack), and at real steps on real states (the pairs' real parts).
    base, _, x0 = _problem_setup(ExperimentConfig(problem="cgl", base_method="strang",
                                                  grid_points=grid_points))
    rng = np.random.default_rng(seed)
    noise = [rng.normal(size=x0.shape) + (0 if real else 1j) * rng.normal(size=x0.shape)
             for _ in radii]
    states = [np.asarray(x0 + 0.05 * dx, complex) for dx in noise]
    steps = tuple(r if real else cmath.rect(r, a) for r, a in zip(radii, args))
    for n, level in enumerate(recursive_family(base, 3).levels, 1):
        assert level.meta.batched
        stack = np.array(states)
        out = level(stack, steps)
        assert out.shape == stack.shape
        for row, state, step in zip(out, states, steps):
            assert row.tobytes() == level(state, step).tobytes(), n


def test_levels_on_an_unbatched_base_are_unbatched():
    base = kepler_strang_flow()
    assert not any(level.meta.batched for level in recursive_family(base, 3).levels)
    assert not any(level.meta.batched for level in recursive_family(
        s4sim(ho_drift_flow(), ho_kick_flow()), 2).levels)


@pytest.mark.parametrize("base_method, level", [
    pytest.param(base_method, level, id=base_method + (f"-level{level}" if level else ""))
    for base_method in ("strang", "s4sim") for level in (0, 1, 2)])
@pytest.mark.parametrize("problem, rtol", [
    ("kepler", 0.0), ("harmonic", 0.0), ("cgl", 1e-15), ("fisher", 1e-15)])
def test_declared_self_conjugate_bases_equal_their_twin(problem, rtol, base_method, level):
    # A method declared self-conjugate runs as its own twin in the next
    # level, so the declaration must hold: conj(S(conj x, conj tau)) ==
    # S(x, tau).  A base with complex coefficients (s4sim) must fail the
    # same check, so declaring it self-conjugate would fail here, not change
    # its family.  Every level declares it, on either base.  A level runs
    # its base at steps turned by up to 0.8 rad more than its own, and past
    # pi/2 the PDEs' diffusion runs backward and amplifies roundoff, so a
    # level's steps keep |arg| <= 0.4; its roundoff grows with the 2^level
    # base calls in sequence along one branch.
    base, _, x0 = _setup(problem, base_method)
    method = recursive_family(base, level).levels[-1] if level else base
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = _perturbed(x0, rng)
        if level:
            tau = cmath.rect(rng.uniform(0.01, 0.1), rng.uniform(-0.4, 0.4))
        else:
            tau = complex(rng.uniform(0.01, 0.1), rng.uniform(-0.05, 0.05))
        got, twin = np.asarray(method(x, tau)), np.conj(method(_conj(x), tau.conjugate()))
        if rtol == 0.0:
            holds = got.tobytes() == twin.tobytes()
        else:
            bound = rtol * 2**level * np.max(np.abs(got))
            holds = bool(np.max(np.abs(got - twin)) <= bound)
        assert holds is method.meta.self_conjugate
    assert method.meta.self_conjugate is (base_method == "strang" or level > 0)


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
    x = (0.3 + 0j, -0.7 + 0j)
    np.testing.assert_allclose(np.asarray(family.levels[0](x, 0.1)),
                               np.asarray(pair(x, 0.1)).real, rtol=0.0, atol=1e-15)
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
        (tuple(map(complex, x0 + 0.05 * rng.normal(size=4))), rng.uniform(0.01, 0.1))
        for _ in range(64)]


def _s4sim_complex_step_inputs(rng):
    # Complex steps run the conj o base o conj twin of the s4sim base.
    base = s4sim(ho_drift_flow(), ho_kick_flow())
    return recursive_family(base, 2).levels[1], [
        (tuple(map(complex, rng.normal(size=2))),
         cmath.rect(rng.uniform(0.01, 0.5), rng.uniform(-0.4, 0.4))) for _ in range(64)]


def test_flow_maps_are_thread_safe():
    # One shared method evaluated concurrently must agree with serial runs.
    from concurrent.futures import ThreadPoolExecutor

    method = recursive_family(ho_strang_flow(), 2).levels[1]
    rng = np.random.default_rng(29)
    inputs = [(tuple(map(complex, rng.normal(size=2))), rng.uniform(0.01, 0.5))
              for _ in range(64)]
    for method, inputs in ((method, inputs), _cgl_level2_inputs(rng),
                           _kepler_level2_inputs(rng), _s4sim_complex_step_inputs(rng)):
        serial = [method(x, tau) for x, tau in inputs]
        # The threads build the tuple helpers of the ODE states concurrently.
        _tuple_ops.cache_clear()
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
