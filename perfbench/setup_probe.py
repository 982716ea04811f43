"""Set-up time of one workload in a fresh process.

    python3 perfbench/setup_probe.py <workload> <inputs-json> <spawn-ns>

``<spawn-ns>`` is the parent's ``time.monotonic_ns()`` just before it
started this process.  The probe imports pscomp, parses the workload's
config, builds the base flow, the initial state and the recursive family,
and prints the seconds from spawn until the first step could run.  It
then prints the time of the reference kernel, run here after a warm-up
call: the probe may run on another CPU than its parent, at another speed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def first_step_inputs(config):
    """Base flow and initial state, built with the public constructors."""
    import numpy as np

    from pscomp.problems import (
        CGLParams, cgl_strang_flow, ho_drift_flow, ho_kick_flow,
        kepler_initial_conditions, kepler_strang_flow, pulse_pair_profile,
        s4sim,
    )
    from pscomp.spectral import SpectralGrid

    params = config.problem_params
    if config.problem == "kepler":
        return kepler_strang_flow(), kepler_initial_conditions(params["e"]).as_vector()
    if config.problem == "cgl":
        grid = SpectralGrid(-100.0, 200.0, config.grid_points)
        x0 = np.array([pulse_pair_profile(grid), np.zeros(grid.n_points)], dtype=complex)
        return cgl_strang_flow(CGLParams(**params), grid), x0
    x0 = np.array([params["q0"], params["p0"]], dtype=complex)
    return s4sim(ho_drift_flow(), ho_kick_flow()), x0


def main(argv):
    name, inputs, spawn_ns = argv[1], argv[2], int(argv[3])
    from pscomp.bench import parse_config
    from pscomp.composition import recursive_family

    from workloads import WORKLOADS

    config = parse_config(inputs, preset=WORKLOADS[name].preset)
    base, _ = first_step_inputs(config)
    recursive_family(base, config.levels)
    ready_s = (time.monotonic_ns() - spawn_ns) / 1e9

    from reference import reference_seconds

    reference_seconds()
    print(ready_s, reference_seconds())


if __name__ == "__main__":
    main(sys.argv)
