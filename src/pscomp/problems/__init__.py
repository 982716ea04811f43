from .harmonic import (
    ho_drift_flow, ho_energy, ho_exact, ho_exact_flow, ho_kick_flow,
    ho_strang_flow,
)
from .kepler import (
    KeplerState, kepler_drift_flow, kepler_energy, kepler_initial_conditions,
    kepler_kick_flow, kepler_strang_flow,
)
from .fisher import fisher_diffusion_map, fisher_reaction_map, fisher_strang_flow
from .cgl import (
    CGLParams, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    pulse_pair_profile,
)
from .splitting import S4SIM_A, S4SIM_B, S4SIM_MAX_ARG, s4sim, strang

__all__ = [
    "CGLParams", "KeplerState",
    "S4SIM_A", "S4SIM_B", "S4SIM_MAX_ARG",
    "cgl_linear_map", "cgl_nonlinear_map", "cgl_strang_flow",
    "fisher_diffusion_map", "fisher_reaction_map", "fisher_strang_flow",
    "ho_drift_flow", "ho_energy", "ho_exact", "ho_exact_flow", "ho_kick_flow",
    "ho_strang_flow",
    "kepler_drift_flow", "kepler_energy", "kepler_initial_conditions",
    "kepler_kick_flow", "kepler_strang_flow",
    "pulse_pair_profile", "s4sim", "strang",
]
