"""Ginzburg-Landau split flows: closed forms, branch cuts, diagonalization."""

import gc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pscomp.problems.cgl as cgl
from pscomp.composition import recursive_family
from pscomp.errors import SingularityError
from pscomp.problems import (
    CGLParams, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    pulse_pair_profile, strang,
)
from pscomp.complexlog import principal_log
from pscomp.spectral import SpectralGrid


@pytest.fixture
def params():
    return CGLParams(c1=1.0, c3=-2.0, eps=1.0)


@pytest.fixture
def grid():
    return SpectralGrid(-100.0, 200.0, 64)


def _state(v, w):
    return np.array([v, w], dtype=complex)


def test_derived_coefficients(params):
    assert params.alpha == 1.0 + 1.0j
    assert params.beta == 1.0 + 2.0j  # c3 = -2


def test_nonlinear_zero_field_is_identity(params):
    out = cgl_nonlinear_map(params)(_state(np.zeros(64), np.zeros(64)), 0.3)
    assert np.max(np.abs(out[0])) == 0.0
    assert np.max(np.abs(out[1])) == 0.0


def test_nonlinear_modulus_law_unit_field(params):
    out = cgl_nonlinear_map(params)(_state(np.ones(64), np.zeros(64)), 0.1)
    modulus = (out[0]**2 + out[1]**2).real
    assert np.max(np.abs(modulus - 1.0 / 1.2)) < 1e-14


def test_nonlinear_modulus_law_random_field(params):
    rng = np.random.default_rng(41)
    v0 = rng.uniform(-0.9, 0.9, size=64)
    w0 = rng.uniform(-0.9, 0.9, size=64)
    tau = 0.17
    out = cgl_nonlinear_map(params)(_state(v0, w0), tau)
    m0 = v0**2 + w0**2
    modulus = (out[0]**2 + out[1]**2).real
    assert np.max(np.abs(modulus - m0 / (1.0 + 2.0 * m0 * tau))) < 1e-12


def test_nonlinear_matches_fine_reference(params):
    rng = np.random.default_rng(42)
    v0 = rng.uniform(-0.8, 0.8, size=64)
    w0 = rng.uniform(-0.8, 0.8, size=64)
    tau = 0.1
    out = cgl_nonlinear_map(params)(_state(v0, w0), tau)

    def rhs(state):
        v, w = state
        m = v**2 + w**2
        return np.array([-m * (v + params.c3 * w), -m * (-params.c3 * v + w)])

    y = np.array([v0, w0])
    h = tau / 10_000
    for _ in range(10_000):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(out[0] - y[0])) < 1e-9
    assert np.max(np.abs(out[1] - y[1])) < 1e-9


def test_nonlinear_matches_direct_closed_form(params):
    # Cross-check of the diagonal-variable implementation against the
    # direct (v, w) formulas built on log(1 + 2 tau (v0^2 + w0^2)).  The
    # exponents carry beta/2: that normalization is the one consistent
    # with the modulus law m0 / (1 + 2 m0 tau).
    rng = np.random.default_rng(43)
    v0 = rng.normal(size=64) * 0.4
    w0 = rng.normal(size=64) * 0.4
    for tau in (0.2, 0.1 + 0.05j):
        out = cgl_nonlinear_map(params)(_state(v0, w0), tau)
        m0 = v0.astype(complex) ** 2 + w0.astype(complex) ** 2
        log_term = principal_log(1.0 + 2.0 * tau * m0)
        decay = np.exp(-0.5 * params.beta * log_term)
        decay_c = np.exp(-0.5 * np.conj(params.beta) * log_term)
        plus = 0.5 * (decay + decay_c)
        minus = (decay - decay_c) / 2j
        v_direct = v0 * plus - w0 * minus
        w_direct = v0 * minus + w0 * plus
        assert np.max(np.abs(out[0] - v_direct)) < 1e-13
        assert np.max(np.abs(out[1] - w_direct)) < 1e-13


def test_nonlinear_branch_cut_raises(params):
    with pytest.raises(SingularityError) as excinfo:
        cgl_nonlinear_map(params)(_state(np.ones(64), np.zeros(64)), -0.5)
    assert excinfo.value.index == 0


def test_linear_zero_step_identity(params, grid):
    rng = np.random.default_rng(44)
    state = _state(rng.normal(size=64), rng.normal(size=64))
    out = cgl_linear_map(params, grid)(state, 0.0)
    assert np.max(np.abs(out - state)) < 1e-14


def test_linear_single_eigenmode():
    # c1 = 0, eps = 0: plain heat decay of one Fourier mode of u = v + i w.
    params = CGLParams(c1=0.0, c3=-2.0, eps=0.0)
    grid = SpectralGrid(-100.0, 200.0, 64)
    k1 = 2.0 * np.pi / 200.0
    u0 = np.exp(1j * k1 * grid.nodes)
    tau = 0.25
    out = cgl_linear_map(params, grid)(_state(u0.real, u0.imag), tau)
    expected = np.exp(-tau * k1**2) * u0
    assert np.max(np.abs(out[0] + 1j * out[1] - expected)) < 1e-13


def test_linear_constant_gain(params, grid):
    out = cgl_linear_map(params, grid)(_state(np.full(64, 0.7), np.zeros(64)), 0.1)
    assert np.max(np.abs(out[0] - 0.7 * np.exp(0.1))) < 1e-13
    assert np.max(np.abs(out[1])) < 1e-13


def test_linear_semigroup(params, grid):
    rng = np.random.default_rng(45)
    state = _state(rng.normal(size=64), rng.normal(size=64))
    linear = cgl_linear_map(params, grid)
    one = linear(linear(state, 0.07), 0.05)
    direct = linear(state, 0.12)
    assert np.max(np.abs(one[0] - direct[0])) < 1e-12
    assert np.max(np.abs(one[1] - direct[1])) < 1e-12


def test_linear_step_repeats_bit_identically_from_read_only_multipliers(params, grid):
    linear = cgl_linear_map(params, grid)
    rng = np.random.default_rng(41)
    state = _state(rng.normal(size=64), rng.normal(size=64))
    tau = complex(0.03, 0.01)
    first = linear(state, tau)
    expected = first.copy()
    first[:] = 0.0  # a caller owns its output; the cache must not alias it
    np.testing.assert_array_equal(linear(state, tau), expected)
    # The uncached formula, evaluated left to right as before the cache.
    diag = np.array([0.5 * (-1j * state[0] + state[1]), 0.5 * (state[0] - 1j * state[1])])
    k2 = grid.wavenumbers() ** 2
    gain = np.exp(params.eps * tau)
    dv = np.fft.ifft(gain * np.exp(-tau * params.alpha * k2) * np.fft.fft(diag[0]))
    dw = np.fft.ifft(gain * np.exp(-tau * np.conj(params.alpha) * k2) * np.fft.fft(diag[1]))
    np.testing.assert_array_equal(expected, np.array([1j * dv + dw, dv + 1j * dw]))
    closure = dict(zip(linear.func.__code__.co_freevars,
                       (cell.cell_contents for cell in linear.func.__closure__)))
    multipliers = closure["multipliers"]
    assert multipliers.cache_info().hits >= 1
    for multiplier in multipliers(tau):
        assert not multiplier.flags.writeable
        with pytest.raises(ValueError):
            multiplier[0] = 0.0


def test_strang_real_data_stays_numerically_real(params, grid):
    flow = cgl_strang_flow(params, grid)
    state = np.array([pulse_pair_profile(grid), np.zeros(64)], dtype=complex)
    out = flow(state, 0.05)
    # (v, w) solve a real system; the diagonal round trip leaves only
    # roundoff-level imaginary parts.
    assert np.max(np.abs(out.imag)) < 1e-12


@pytest.mark.parametrize("tau", [0.05, complex(0.04, 0.02), complex(0.03, -0.015)])
def test_strang_matches_the_stage_composition_and_keeps_its_input(params, grid, tau):
    rng = np.random.default_rng(46)
    state = _state(pulse_pair_profile(grid) + 0.1 * rng.normal(size=64),
                   0.2 * rng.normal(size=64))
    before = state.copy()
    composed = strang(cgl_linear_map(params, grid), cgl_nonlinear_map(params))
    fused = cgl_strang_flow(params, grid)(state, tau)
    assert np.max(np.abs(fused - composed(state, tau))) < 1e-13
    # The kernels write in place on the diagonal rows, never on the caller's state.
    for flow in (cgl_strang_flow(params, grid), cgl_linear_map(params, grid),
                 cgl_nonlinear_map(params)):
        flow(state, tau)
        np.testing.assert_array_equal(state, before)


def _allocating_strang(params, grid, vw, tau):
    """The Strang evaluation as the allocating expressions it replaced in place."""
    def to_diagonal(vw):
        v, w = vw
        return np.array([0.5 * (-1j * v + w), 0.5 * (v - 1j * w)])

    def from_diagonal(diag):
        dv, dw = diag
        return np.array([1j * dv + dw, dv + 1j * dw])

    def linear(diag, multipliers):
        for row, multiplier in enumerate(multipliers):
            diag[row] = np.fft.ifft(multiplier * np.fft.fft(diag[row]))
        return diag

    def cubic(diag, tau, beta):
        z = 1.0 + 2.0 * tau * (4j * diag[0] * diag[1])
        decay = np.exp(-0.5 * beta * principal_log(z))
        diag[0] *= decay
        decay *= z
        diag[1] /= decay
        return diag

    half = cgl._multipliers(params, grid)(tau / 2.0)
    diag = cubic(linear(to_diagonal(vw), half), tau, params.beta)
    return from_diagonal(linear(diag, half))


@pytest.mark.parametrize("n_points", [64, 512])
@pytest.mark.parametrize("tau", [0.05, complex(0.04, 0.02), complex(0.03, -0.015)])
def test_strang_in_place_kernel_is_bit_identical_to_the_allocating_one(params, n_points, tau):
    grid = SpectralGrid(-100.0, 200.0, n_points)
    rng = np.random.default_rng(48)
    state = _state(pulse_pair_profile(grid) + 0.1 * rng.normal(size=n_points),
                   0.2 * rng.normal(size=n_points))
    before = state.copy()
    flow = cgl_strang_flow(params, grid)
    out = flow(state, tau)
    np.testing.assert_array_equal(out, _allocating_strang(params, grid, state, tau))
    np.testing.assert_array_equal(state, before)
    closure = dict(zip(flow.func.__code__.co_freevars,
                       (cell.cell_contents for cell in flow.func.__closure__)))
    assert not any(m.flags.writeable for m in closure["multipliers"](tau / 2.0))


def test_strang_reports_the_grid_index_of_a_branch_cut():
    # With c1 = eps = 0, a real field and a real step, the 4-point DFT
    # (twiddles +-1, +-i) keeps the diagonal rows exactly imaginary and
    # real, so 1 + 2 tau m0 is exactly real.  After the first half-step it
    # is about 0.9 off the peak and about -2.6 at the peak (index 3).
    params = CGLParams(c1=0.0, c3=-2.0, eps=0.0)
    flow = cgl_strang_flow(params, SpectralGrid(-100.0, 200.0, 4))
    with pytest.raises(SingularityError) as excinfo:
        flow(_state([0.5, 0.5, 0.5, 3.0], np.zeros(4)), -0.2)
    assert excinfo.value.index == 3
    assert excinfo.value.value.real < 0.0


def test_stacked_strang_reports_the_grid_index_within_the_row():
    # The state of the test above as row 1 of a stack; row 0 stays off the cut.
    params = CGLParams(c1=0.0, c3=-2.0, eps=0.0)
    flow = cgl_strang_flow(params, SpectralGrid(-100.0, 200.0, 4))
    stack = np.array([_state(np.full(4, 0.5), np.zeros(4)),
                      _state([0.5, 0.5, 0.5, 3.0], np.zeros(4))])
    flow(stack[0], -0.2)
    with pytest.raises(SingularityError) as excinfo:
        flow(stack, (-0.2, -0.2))
    assert excinfo.value.index == 3
    assert excinfo.value.value.real < 0.0


@pytest.mark.parametrize("n_points", [32, 512])
def test_stacked_strang_rows_equal_single_calls_bit_for_bit(params, n_points):
    grid = SpectralGrid(-100.0, 200.0, n_points)
    flow = cgl_strang_flow(params, grid)
    assert flow.meta.batched and flow.meta.self_conjugate
    rng = np.random.default_rng(49)
    states = [_state(pulse_pair_profile(grid) + 0.1 * rng.normal(size=n_points),
                     0.2 * rng.normal(size=n_points) + 0.05j * rng.normal(size=n_points))
              for _ in range(3)]
    steps = (0.05, complex(0.04, 0.02), complex(0.03, -0.015))
    stack = np.array(states)
    before = stack.copy()
    out = flow(stack, steps)
    assert out.shape == stack.shape
    for row, state, tau in zip(out, states, steps):
        assert row.tobytes() == flow(state, tau).tobytes()
    np.testing.assert_array_equal(stack, before)


def test_a_discarded_strang_flow_frees_its_stacked_multipliers(params, grid):
    # Reference counting alone must free the cache: a cycle would keep the
    # arrays of every discarded flow until a full collection.
    flow = cgl_strang_flow(params, grid)
    state = _state(pulse_pair_profile(grid), np.zeros(64))
    flow(np.array([state, state]), (0.05, complex(0.04, 0.02)))
    closure = dict(zip(flow.func.__code__.co_freevars,
                       (cell.cell_contents for cell in flow.func.__closure__)))
    cache = weakref.ref(closure["multipliers"])
    del flow, closure
    gc.disable()
    try:
        assert cache() is None
    finally:
        gc.enable()


def test_the_strang_cache_keeps_single_steps_whatever_the_stack_width(params, grid):
    flow = cgl_strang_flow(params, grid)
    state = _state(pulse_pair_profile(grid), np.zeros(64))
    closure = dict(zip(flow.func.__code__.co_freevars,
                       (cell.cell_contents for cell in flow.func.__closure__)))
    multipliers = closure["multipliers"]
    steps = (0.05, complex(0.04, 0.02), 0.05, complex(0.03, -0.015))
    flow(np.array([state] * 4), steps)
    assert multipliers.cache_info().currsize == 3  # one entry per distinct step
    flow(np.array([state] * 2), steps[:2])
    assert multipliers.cache_info().currsize == 3
    assert all(len(multipliers(t / 2.0)[0]) == 64 for t in steps)


def _closure(flow):
    return dict(zip(flow.func.__code__.co_freevars,
                    (cell.cell_contents for cell in flow.func.__closure__)))


def test_the_strang_kernel_caches_a_stacks_multipliers_per_tuple_of_steps(params, grid):
    flow = cgl_strang_flow(params, grid)
    state = _state(pulse_pair_profile(grid), np.zeros(64))
    closure = _closure(flow)
    multipliers, stacked = closure["multipliers"], closure["stacked"]
    steps = (0.05, complex(0.04, 0.02), complex(0.03, -0.015))
    flow(np.array([state] * 3), steps)
    half = stacked(steps)
    assert stacked(steps) is half
    assert half.shape == (2, 3, 64) and not half.flags.writeable
    with pytest.raises(ValueError):
        half[0, 0, 0] = 0.0
    for row, tau in enumerate(steps):
        assert half[:, row].tobytes() == multipliers(tau / 2.0).tobytes()
    for k in range(8):  # 9 distinct tuples in all
        flow(np.array([state] * 2), (0.05, 0.001 * (k + 1)))
    assert stacked.cache_info().currsize == 8


def test_a_discarded_strang_flow_frees_its_cache_of_tuples(params, grid):
    flow = cgl_strang_flow(params, grid)
    state = _state(pulse_pair_profile(grid), np.zeros(64))
    flow(np.array([state, state]), (0.05, complex(0.04, 0.02)))
    closure = _closure(flow)
    cache = weakref.ref(closure["stacked"])
    del flow, closure
    gc.disable()
    try:
        assert cache() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("stack", [False, True])
def test_a_strang_evaluation_makes_4_fft_and_4_ifft_calls(params, grid, monkeypatch, stack):
    # One transform pair per diagonal component and half-step; folding the
    # two components into one call would change what the benchmark counts.
    flow = cgl_strang_flow(params, grid)
    state = _state(pulse_pair_profile(grid), np.zeros(64))
    state, tau = (np.array([state] * 3), (0.05, 0.04, 0.03)) if stack else (state, 0.05)
    calls = {"fft": 0, "ifft": 0}

    def counted(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)
        return call

    fft = types.ModuleType("numpy.fft")
    fft.__dict__.update(np.fft.__dict__, fft=counted("fft"), ifft=counted("ifft"))
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__, fft=fft)
    monkeypatch.setattr(cgl, "np", proxy)
    flow(state, tau)
    assert calls == {"fft": 4, "ifft": 4}


def test_a_discarded_stacked_family_frees_its_base(params, grid):
    # A level that called itself would be a reference cycle holding its
    # base and every cached multiplier until a full collection.
    flow = cgl_strang_flow(params, grid)
    levels = recursive_family(flow, 3).levels
    state = _state(pulse_pair_profile(grid), np.zeros(64))
    levels[-1](state, 0.05)
    levels[-1](np.array([state, state]), (0.05, complex(0.04, 0.02)))
    base = weakref.ref(flow)
    del flow, levels
    gc.disable()
    try:
        assert base() is None
    finally:
        gc.enable()


@settings(max_examples=50, deadline=None)
@given(c3=st.floats(-50.0, 50.0),
       tau=st.complex_numbers(max_magnitude=0.2).filter(lambda t: t.real >= 0.0))
def test_one_exp_cubic_matches_the_two_exp_closed_form(c3, tau):
    rng = np.random.default_rng(47)
    beta = CGLParams(c1=1.0, c3=c3, eps=1.0).beta
    diag = cgl._to_diagonal(_state(rng.uniform(-1.0, 1.0, 64), rng.uniform(-1.0, 1.0, 64)))
    log_term = principal_log(1.0 + 2.0 * tau * (4j * diag[0] * diag[1]))
    expected = np.array([diag[0] * np.exp(-0.5 * beta * log_term),
                         diag[1] * np.exp(-0.5 * np.conj(beta) * log_term)])
    out = cgl._cubic(diag.copy(), tau, beta)
    assert np.max(np.abs(out - expected) / np.abs(expected)) < 1e-14


def test_pulse_pair_profile(grid):
    profile = pulse_pair_profile(grid)
    assert profile.max() <= 1.7
    assert profile.min() >= 0.0

