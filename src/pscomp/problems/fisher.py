"""Semi-linear reaction-diffusion equation u_t = u_xx + u(1 - u) on a
periodic interval, split into the Laplacian flow (diagonal in Fourier
space) and the logistic reaction flow, which has the closed form

    u(t) = u0 e^t / (1 + u0 (e^t - 1)).

This evaluation form has fewer cancellations than the equivalent
``u0 + u0 (1 - u0)(e^t - 1) / (1 + u0 (e^t - 1))``; the equivalence is a
unit test.  The reaction flow is defined for any complex step small enough
that the denominator stays away from zero.
"""

import numpy as np

from ..errors import SingularityError
from ..flowmap import STRANG_META, FlowMap
from ..spectral import step_cache
from .splitting import strang

REACTION_DENOMINATOR_FLOOR = 1e-12


def _reaction(values, tau):
    growth = np.exp(tau)
    denom = 1.0 + values * (growth - 1.0)
    bad = np.abs(denom) < REACTION_DENOMINATOR_FLOOR
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise SingularityError(
            f"logistic flow denominator vanished at grid index {idx}",
            index=idx, value=complex(denom[idx]),
        )
    return values * growth / denom


def fisher_reaction_map():
    return FlowMap(_reaction, STRANG_META)


def fisher_diffusion_map(grid):
    k2 = grid.wavenumbers() ** 2

    multipliers = step_cache(lambda tau: np.exp(-tau * k2))

    def apply(values, tau):
        return np.fft.ifft(multipliers(tau) * np.fft.fft(values))

    return FlowMap(apply, STRANG_META)


def fisher_strang_flow(grid):
    """Splitting diffusion(tau/2), reaction(tau), diffusion(tau/2)."""
    return strang(fisher_diffusion_map(grid), fisher_reaction_map())
