"""Grid, snapshots, and the diagonal propagators of the PDE problems."""

import math

import numpy as np
import pytest

from pscomp.errors import ValidationError
from pscomp.problems import CGLParams, cgl_linear_map, fisher_diffusion_map
from pscomp.spectral import SpectralGrid, write_snapshot


@pytest.fixture
def unit_grid():
    return SpectralGrid(0.0, 1.0, 64)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        SpectralGrid(0.0, 1.0, 100)
    with pytest.raises(ValidationError):
        SpectralGrid(0.0, 1.0, 1)


@pytest.mark.parametrize("length", [0.0, -1.0])
def test_grid_rejects_non_positive_length(length):
    with pytest.raises(ValidationError, match="domain length must be positive"):
        SpectralGrid(0.0, length, 64)


def test_grid_nodes_uniform(unit_grid):
    nodes = unit_grid.nodes
    assert nodes[0] == 0.0
    assert np.allclose(np.diff(nodes), 1.0 / 64)


def test_field_length_mismatch(unit_grid, tmp_path):
    with pytest.raises(ValidationError, match="does not match"):
        write_snapshot(unit_grid, np.zeros(32), tmp_path / "field.txt")


def test_wavenumbers_laplacian_symbol(unit_grid):
    k = unit_grid.wavenumbers()
    assert np.isrealobj(k)
    assert np.all(-(k**2) <= 0.0)
    # Nyquist mode kept with the negative sign
    assert k[32] == pytest.approx(-np.pi * 64 / 1.0)


def test_roundtrip_random_field():
    # A unitary (imaginary) diffusion step and its inverse undo each other,
    # so the DFT pair inside the propagator is a round trip.
    grid = SpectralGrid(0.0, 1.0, 512)
    rng = np.random.default_rng(21)
    values = rng.normal(size=512) + 1j * rng.normal(size=512)
    diffusion = fisher_diffusion_map(grid)
    back = diffusion(diffusion(values, 1e-3j), -1e-3j)
    assert np.max(np.abs(back - values)) / np.max(np.abs(values)) < 1e-13


def test_constant_field_single_mode(unit_grid):
    # A constant lives in the zero mode only, which diffusion leaves alone.
    out = fisher_diffusion_map(unit_grid)(np.full(64, 3.0 + 0.0j), 0.3 + 0.1j)
    assert np.max(np.abs(out - 3.0)) < 1e-12


def test_sine_has_two_modes(unit_grid):
    # sin(2 pi x) sits in modes 1 and 63, both at |k| = 2 pi, so a complex
    # step scales it by exp(-4 pi^2 tau).
    k = unit_grid.wavenumbers()
    assert (k[1], k[63]) == pytest.approx((2.0 * np.pi, -2.0 * np.pi))
    values = np.sin(2 * np.pi * unit_grid.nodes)
    tau = 0.01 + 0.02j
    out = fisher_diffusion_map(unit_grid)(values, tau)
    assert np.max(np.abs(out - np.exp(-4.0 * np.pi**2 * tau) * values)) < 1e-12


@pytest.mark.parametrize("n", [64, 512])
def test_parseval(n):
    # An imaginary diffusion step is a unitary modal multiplier; it keeps
    # the physical two-norm exactly when the DFT pair satisfies Parseval.
    grid = SpectralGrid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    out = fisher_diffusion_map(grid)(values, 0.37j)
    physical = np.sum(np.abs(values) ** 2)
    assert abs(np.sum(np.abs(out) ** 2) - physical) / physical < 1e-12


def test_propagator_zero_step_is_identity(unit_grid):
    rng = np.random.default_rng(2)
    values = rng.normal(size=64)
    out = fisher_diffusion_map(unit_grid)(values, 0.0)
    assert np.max(np.abs(out - values)) < 1e-15


def test_propagator_eigenmode_decay(unit_grid):
    values = np.sin(2 * np.pi * unit_grid.nodes)
    tau = 0.01
    out = fisher_diffusion_map(unit_grid)(values, tau)
    expected = np.exp(-4.0 * np.pi**2 * tau) * values
    assert np.max(np.abs(out - expected)) < 1e-12


def test_propagator_zero_mode_gain(unit_grid):
    # The Ginzburg-Landau linear part with eps = 1: u = 1 grows like e^t.
    linear = cgl_linear_map(CGLParams(c1=0.0, c3=0.0, eps=1.0), unit_grid)
    out = linear(np.array([np.ones(64), np.zeros(64)], dtype=complex), 0.1)
    assert np.allclose(out[0], np.exp(0.1), atol=1e-13)
    assert np.allclose(out[1], 0.0, atol=1e-13)


def test_propagator_semigroup(unit_grid):
    rng = np.random.default_rng(3)
    state = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    linear = cgl_linear_map(CGLParams(c1=0.7, c3=0.0, eps=0.5), unit_grid)
    one = linear(linear(state, 0.05 + 0.02j), 0.03 - 0.01j)
    both = linear(state, 0.08 + 0.01j)
    assert np.max(np.abs(one - both)) < 1e-12


def test_propagator_contraction_in_two_norm(unit_grid):
    rng = np.random.default_rng(4)
    state = np.array([rng.normal(size=64), np.zeros(64)], dtype=complex)
    linear = cgl_linear_map(CGLParams(c1=1.0, c3=0.0, eps=0.0), unit_grid)
    out = linear(state, 0.2)
    assert np.linalg.norm(out) <= np.linalg.norm(state)


def test_write_snapshot_format(unit_grid, tmp_path):
    path = tmp_path / "field.txt"
    write_snapshot(unit_grid, np.arange(64) * (1.0 + 2.0j), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 64
    x, re, im = (float(tok) for tok in lines[5].split())
    assert x == pytest.approx(unit_grid.nodes[5])
    assert re == pytest.approx(5.0)
    assert im == pytest.approx(10.0)


def test_write_snapshot_prints_each_float_as_its_numpy_scalar(unit_grid, tmp_path):
    # The file holds the rows a per-point loop over the numpy scalars would
    # print, signed zeros, nan and inf included.
    values = np.arange(64) * (1.0 - 2.0j) / 3.0
    values[:6] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(math.nan, math.inf),
                  complex(-math.inf, math.nan), complex(5e-324, -1e308), -0.0]
    path = tmp_path / "field.txt"
    write_snapshot(unit_grid, values, path)
    expected = "".join(f"{x:.16e} {v.real:.16e} {v.imag:.16e}\n"
                       for x, v in zip(unit_grid.nodes, values))
    assert path.read_bytes() == expected.encode()
    assert "-0.0000000000000000e+00" in expected and "nan" in expected
