"""The three benchmark workloads: which preset each runs, at what scale,
and the inputs a seed generates.

Every workload is a closed-loop batch run of one ``pscomp-bench`` preset
in a single process and thread: the next cell starts only when the
previous one has finished.  The run length is set by scaling
``tau_list``/``t_final``; the per-step work is that of the full preset.

Seed 0 keeps the preset's own ``problem_params``.  Any other seed draws
them from a narrow band around those defaults.  The band is chosen so
every correctness gate passes, and the per-step cost does not depend on
the drawn values, so seeds change the inputs but not the work.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    why: str
    #: Preset fields replaced for the benchmark (run length, base method).
    scale: dict
    #: ``problem_params`` of seed 0, equal to the preset defaults.
    defaults: dict
    #: ``(low, high)`` band per drawn parameter for seeds other than 0.
    bands: dict
    #: True when each cell also runs tau/2 (successive-error protocol).
    successive: bool
    #: True when the base and every level run; False for the deepest only.
    all_levels: bool


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="kepler-deep",
            preset="kepler-order",
            why=("Kepler, Strang base, levels 1-3: a 4-element state, so "
                 "Python-call and complex-log overhead and the mirror "
                 "branches of deep levels dominate"),
            scale={"tau_list": [0.08, 0.04, 0.02, 0.01], "t_final": 2.0},
            defaults={"e": 0.6},
            bands={"e": (0.57, 0.63)},
            successive=False,
            all_levels=True,
        ),
        Workload(
            name="cgl-wide",
            preset="cgl-order",
            why=("Ginzburg-Landau at N = 512, levels 1-2 with tau/2 reruns "
                 "and field snapshots: FFTs, exp multipliers and array "
                 "round trips dominate"),
            scale={"tau_list": [0.05, 0.025, 0.0125, 0.00625], "t_final": 0.2},
            defaults={"c1": 1.0, "c3": -2.0, "eps": 1.0},
            bands={"c1": (0.95, 1.05), "c3": (-2.05, -1.95)},
            successive=True,
            all_levels=True,
        ),
        Workload(
            name="ho-s4sim-long",
            preset="ho-energy",
            why=("oscillator, s4sim base, one level at real steps with every "
                 "state recorded: many cheap FlowMap calls, no log or FFT"),
            scale={"base_method": "s4sim", "tau_list": [1.2, 1.0, 0.8],
                   "t_final": 1200.0},
            defaults={"q0": 2.5, "p0": 0.0},
            bands={"q0": (2.4, 2.6), "p0": (-0.05, 0.05)},
            successive=False,
            all_levels=False,
        ),
    )
}


def workload_inputs(workload, seed):
    """Preset overrides for ``seed``: the scaled run plus drawn parameters."""
    params = dict(workload.defaults)
    if seed != 0:
        rng = random.Random(f"{workload.name}:{seed}")
        for key, (low, high) in sorted(workload.bands.items()):
            params[key] = rng.uniform(low, high)
    return {**workload.scale, "problem_params": params}


def required_steps(workload, config):
    """Steps one run of ``config`` must take under the preset's protocol.

    An energy cell takes n = t_final / tau steps; a successive-error cell
    takes n steps at tau and 2n at tau/2.  The count comes from the
    protocol, not from what the program executes, so a program that
    reuses the tau/2 run is credited with the steps it saved.
    """
    per_cell = 3 if workload.successive else 1
    methods = config.levels + 1 if workload.all_levels else 1
    return methods * sum(per_cell * round(config.t_final / tau)
                         for tau in config.tau_list)
