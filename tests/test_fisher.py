"""Logistic reaction flow and its splitting with the heat propagator."""

import numpy as np
import pytest

from pscomp.errors import SingularityError
from pscomp.problems import fisher_reaction_map, fisher_strang_flow
from pscomp.problems.fisher import _reaction
from pscomp.spectral import SpectralGrid


@pytest.fixture
def grid():
    return SpectralGrid(0.0, 1.0, 32)


def _rk4_logistic(u0, tau, n_sub):
    """Reference integration of u' = u (1 - u)."""
    def rhs(u):
        return u * (1.0 - u)

    u = np.array(u0, dtype=complex)
    h = tau / n_sub
    for _ in range(n_sub):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


@pytest.mark.parametrize("value", [0.0, 1.0])
def test_fixed_points(grid, value):
    out = fisher_reaction_map()(np.full(32, value, dtype=complex), 0.37)
    assert np.max(np.abs(out - value)) < 1e-14


def test_matches_fine_reference(grid):
    u0 = np.full(32, 0.5, dtype=complex)
    out = fisher_reaction_map()(u0, 0.2)
    reference = _rk4_logistic(u0, 0.2, 10_000)
    assert np.max(np.abs(out - reference)) < 1e-10


def test_semigroup_property(grid):
    rng = np.random.default_rng(31)
    u0 = rng.uniform(0.05, 0.95, size=32)
    reaction = fisher_reaction_map()
    t1, t2 = 0.23, 0.41
    chained = reaction(reaction(u0, t1), t2)
    direct = reaction(u0, t1 + t2)
    assert np.max(np.abs(chained - direct)) < 1e-12


def test_matches_incremental_form(grid):
    # Algebraic equivalence with u0 + u0 (1-u0)(e^t - 1)/(1 + u0 (e^t - 1)).
    rng = np.random.default_rng(32)
    u0 = rng.normal(size=32) + 1j * rng.normal(size=32)
    tau = 0.1 + 0.07j
    growth = np.exp(tau) - 1.0
    incremental = u0 + u0 * (1.0 - u0) * growth / (1.0 + u0 * growth)
    assert np.max(np.abs(_reaction(u0, tau) - incremental)) < 1e-12


def test_vanishing_denominator_raises(grid):
    tau = 0.3
    values = np.full(32, 0.5, dtype=complex)
    values[7] = -1.0 / (np.exp(tau) - 1.0)
    with pytest.raises(SingularityError) as excinfo:
        fisher_reaction_map()(values, tau)
    assert excinfo.value.index == 7


def test_strang_step_preserves_constant_state(grid):
    # u = 1 is a steady state of the full equation: diffusion leaves it
    # unchanged and the reaction fixes it.
    flow = fisher_strang_flow(grid)
    out = flow(np.ones(32, dtype=complex), 0.05)
    assert np.max(np.abs(out - 1.0)) < 1e-13
