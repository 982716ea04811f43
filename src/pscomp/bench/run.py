"""Named experiment presets.

Every preset produces one :class:`ResultTable` with the shared schema

    problem, preset, base, method, level, quantity, entry, tau, time,
    value, slope, coefficient, residual, status

and writes ``<name>.csv`` plus a JSON metadata sidecar (and, for the PDE
problems, a final-field snapshot per the deepest method).  A
(method, tau) cell that hits a singularity or yields a non-finite value
is marked failed (see :func:`_measure`) instead of aborting the preset.
"""

import math
import os
from dataclasses import asdict
from functools import partial

import numpy as np

from .. import __version__
from ..composition import coefficient_arguments, recursive_family
from ..diagnostics import (
    energy_error_series, envelope_growth, fit_leading_term, integrate,
    oscillator_defects, power_law_fit, propagate, slope_with_floor,
    step_count, successive_error,
)
from ..errors import SingularityError
from ..problems import (
    CGLParams, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    fisher_diffusion_map, fisher_reaction_map, fisher_strang_flow,
    ho_drift_flow, ho_energy, ho_kick_flow, ho_strang_flow,
    kepler_drift_flow, kepler_energy, kepler_initial_conditions,
    kepler_kick_flow, kepler_strang_flow, pulse_pair_profile, s4sim,
)
from ..spectral import SpectralGrid, write_snapshot
from .config import PROBLEM_PARAMS, apply_overrides, check_runnable, preset_config
from .emit import ResultTable, emit

SCHEMA = [
    "problem", "preset", "base", "method", "level", "quantity", "entry",
    "tau", "time", "value", "slope", "coefficient", "residual", "status",
]

#: Error floors below which order-fit samples count as roundoff; the CGL
#: runs accumulate more FFT roundoff per step than the others.
ORDER_FIT_FLOORS = {"kepler": 1e-13, "fisher": 1e-13, "cgl": 5e-13}


def _problem_setup(config):
    """Base flow map, grid (PDE only), and initial state for a config."""
    params = {**PROBLEM_PARAMS[config.problem], **config.problem_params}
    if config.problem == "harmonic":
        x0 = np.array([params["q0"], params["p0"]], dtype=complex)
        if config.base_method == "strang":
            return ho_strang_flow(), None, x0
        return s4sim(ho_drift_flow(), ho_kick_flow()), None, x0
    if config.problem == "kepler":
        x0 = kepler_initial_conditions(params["e"]).as_vector()
        if config.base_method == "strang":
            return kepler_strang_flow(), None, x0
        return s4sim(kepler_drift_flow(), kepler_kick_flow()), None, x0
    if config.problem == "fisher":
        grid = SpectralGrid(0.0, 1.0, config.grid_points)
        x0 = np.asarray(np.sin(2.0 * np.pi * grid.nodes), dtype=complex)
        if config.base_method == "strang":
            return fisher_strang_flow(grid), grid, x0
        return s4sim(fisher_diffusion_map(grid), fisher_reaction_map()), grid, x0
    # cgl
    cgl_params = CGLParams(**params)
    grid = SpectralGrid(-100.0, 200.0, config.grid_points)
    x0 = np.array([pulse_pair_profile(grid), np.zeros(grid.n_points)], dtype=complex)
    if config.base_method == "strang":
        return cgl_strang_flow(cgl_params, grid), grid, x0
    return s4sim(cgl_linear_map(cgl_params, grid),
                 cgl_nonlinear_map(cgl_params)), grid, x0


def _methods(config, base):
    """Ordered (name, level, flow) triples: the base plus family levels."""
    out = [(config.base_method, 0, base)]
    family = recursive_family(base, config.levels)
    for i, level in enumerate(family.levels, start=1):
        out.append((f"level{i}", i, level))
    return out


def _new_table(name, config):
    table = ResultTable(schema=SCHEMA)
    table.metadata = {
        "preset": name,
        "config": asdict(config),
        "artifact": "pscomp",
        "version": __version__,
        "precision": "f64",
        "schema": SCHEMA,
        "row_semantics": (
            "the quantity column names what the value column holds "
            "(successive_error/energy_error rows carry E_tau per step size; "
            "*_fit rows carry slope/coefficient/residual of the power-law fit)"
        ),
        "failures": [],
    }
    return table


def _common(name, config, **extra):
    cells = {"problem": config.problem, "preset": name,
             "base": config.base_method}
    cells.update(extra)
    return cells


def _fit_cells(fit, n_ok, needed=3):
    """Cells of a fit row from a :class:`PowerLawFit`, an order fit's bare
    slope, or None: then ``insufficient_samples`` when fewer than ``needed``
    cells are ``ok``, else ``below_floor`` (the floor left too few)."""
    if fit is None:
        return {"status": "insufficient_samples" if n_ok < needed else "below_floor"}
    if isinstance(fit, float):
        return {"slope": fit, "status": "ok"}
    return {"slope": fit.exponent, "coefficient": fit.coefficient,
            "residual": fit.residual, "status": "ok"}


def _measure(table, method_name, tau, compute):
    """Run one measured (method, tau) cell; returns ``(values, status)``.

    ``compute()`` runs with numpy's floating-point warnings off and returns
    a tuple of numbers and arrays.  A ``SingularityError`` makes the cell
    ``singular: <message>``, a nan or inf in the tuple ``non_finite: ...``;
    either way ``values`` is None and the cell gets one ``failures`` entry,
    with the singularity's step index (None for a non-finite value).  A
    failed cell sets ``all_rows_failed`` unless an ``ok`` cell cleared it."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = compute()
    except SingularityError as exc:
        kind, error, step = "singular", str(exc), exc.step
    else:
        if all(np.isfinite(v).all() for v in values):
            table.metadata["all_rows_failed"] = False
            return values, "ok"
        kind, error, step = "non_finite", "result has nan or inf", None
    table.metadata.setdefault("all_rows_failed", True)
    table.metadata["failures"].append(
        {"method": method_name, "tau": tau, "error": error, "step": step})
    return None, f"{kind}: {error}"


def _run_order(name, config, out_base):
    base, grid, x0 = _problem_setup(config)
    table = _new_table(name, config)
    quantity = "successive_error"
    if config.problem == "kepler":
        quantity, h0 = "energy_error", kepler_energy(x0)

    def measure(method, tau, coarse):
        if quantity == "successive_error":
            return successive_error(method, x0, tau, config.t_final, coarse)
        final = propagate(method, x0, tau, step_count(config.t_final, tau))
        return abs(kepler_energy(final) - h0) / abs(h0), final

    snapshots = []
    for method_name, level, method in _methods(config, base):
        taus, errors, last_field, fine_tau = [], [], None, None
        # An ok cell's tau/2 run is the tau run of a next cell at exactly tau/2.
        for tau in config.tau_list:
            coarse = last_field if tau == fine_tau else None
            result, status = _measure(table, method_name, tau,
                                      lambda: measure(method, tau, coarse))
            value, fine_tau = math.nan, None
            if result is not None:
                value, last_field = result
                fine_tau = tau / 2.0
                taus.append(tau)
                errors.append(value)
            table.add_row(**_common(name, config, method=method_name,
                                    level=level, quantity=quantity, tau=tau,
                                    value=value, status=status))
        slope = slope_with_floor(taus, errors, floor=ORDER_FIT_FLOORS[config.problem])
        table.add_row(**_common(name, config, method=method_name, level=level,
                                quantity="order_fit"),
                      **_fit_cells(slope, len(taus), needed=2))
        if grid is not None and last_field is not None:
            path = f"{out_base}_{method_name}_field.txt"
            if config.problem == "cgl":
                last_field = last_field[0] + 1j * last_field[1]
            write_snapshot(grid, last_field, path)
            snapshots.append(path)
    return table, snapshots


def _run_ho_table1(name, config, out_base):
    """Per level: four truncation-entry fits, then each defect per tau and its fit."""
    base, _, _ = _problem_setup(config)
    table = _new_table(name, config)
    family = recursive_family(base, config.levels)
    for level, method in enumerate(family.levels, start=1):
        method_name = f"level{level}"
        row = partial(_common, name, config, method=method_name, level=level)
        cells = [(tau, *_measure(table, method_name, tau,
                                 lambda: oscillator_defects(method, tau)))
                 for tau in config.tau_list]
        ok = [(tau, values) for tau, values, _ in cells if values is not None]
        taus = [tau for tau, _ in ok]

        def fit_cells(series):
            return _fit_cells(fit_leading_term(taus, series), len(ok))

        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            table.add_row(**row(quantity="truncation", entry=f"{i}{j}"),
                          **fit_cells([values[0][i, j] for _, values in ok]))
        for k, quantity in ((1, "symmetry_defect"), (2, "determinant_defect")):
            for tau, values, status in cells:
                table.add_row(**row(quantity=quantity, tau=tau, status=status,
                                    value=math.nan if values is None else values[k]))
            table.add_row(**row(quantity=f"{quantity}_fit"),
                          **fit_cells([values[k] for _, values in ok]))
    return table, []


def _run_ho_energy(name, config, out_base):
    base, _, x0 = _problem_setup(config)
    table = _new_table(name, config)
    family = recursive_family(base, config.levels)
    method = family.levels[-1]
    method_name = f"level{config.levels}"
    positive = []
    for tau in config.tau_list:
        n = step_count(config.t_final, tau)
        values, status = _measure(table, method_name, tau, lambda: envelope_growth(
            energy_error_series(integrate(method, x0, tau, n), ho_energy)))
        if values is not None and values[2] > 0:
            positive.append((tau, values[2]))
        for quantity, value in zip(("energy_plateau", "energy_envelope",
                                    "secular_growth"), values or (math.nan,) * 3):
            table.add_row(**_common(name, config, method=method_name,
                                    level=config.levels, quantity=quantity,
                                    tau=tau, value=value, status=status))
    # Growth at or under zero is roundoff: zero is this fit's floor.
    fit = power_law_fit(*zip(*positive)) if len(positive) >= 3 else None
    n_ok = len(config.tau_list) - len(table.metadata["failures"])
    table.add_row(**_common(name, config, method=method_name,
                            level=config.levels, quantity="secular_order"),
                  **_fit_cells(fit, n_ok))
    return table, []


def _run_kepler_energy(name, config, out_base):
    """Energy error against time per method and tau, at about 500 points each."""
    base, _, x0 = _problem_setup(config)
    table = _new_table(name, config)
    for method_name, level, method in _methods(config, base):
        for tau in config.tau_list:
            n = step_count(config.t_final, tau)
            values, status = _measure(table, method_name, tau, lambda: (
                energy_error_series(integrate(method, x0, tau, n), kepler_energy),))
            points = [(None, math.nan)] if values is None else [
                (tau * idx, float(values[0][idx]))
                for idx in range(0, n + 1, max(1, n // 500))]
            for time, value in points:
                table.add_row(**_common(name, config, method=method_name, level=level,
                                        quantity="energy_error", tau=tau, time=time,
                                        value=value, status=status))
    return table, []


def _run_coeff_audit(name, config, out_base):
    table = _new_table(name, config)
    bases = (
        ("strang", ho_strang_flow(), 3),
        ("s4sim", s4sim(ho_drift_flow(), ho_kick_flow()), 4),
    )
    table.metadata["families"] = [{"base_method": b, "levels": n} for b, _, n in bases]
    for base_name, base, levels in bases:
        family = recursive_family(base, levels)
        max_arg, all_positive = coefficient_arguments(family)
        table.add_row(problem="harmonic", preset=name, base=base_name,
                      method=f"{base_name}x{levels}",
                      quantity="max_coefficient_argument",
                      value=max_arg, coefficient=max_arg / (math.pi / 2.0),
                      status="all_positive_real" if all_positive
                      else "nonpositive_real_present")
        for level, flow in enumerate(family.levels, start=1):
            table.add_row(problem="harmonic", preset=name, base=base_name,
                          method=f"level{level}", level=level,
                          quantity="declared_order",
                          value=float(flow.meta.order),
                          status="capped" if family.capped[level - 1] else "ok")
    return table, []


_RUNNERS = {
    "ho-table1": _run_ho_table1, "ho-energy": _run_ho_energy,
    "kepler-order": _run_order, "kepler-energy": _run_kepler_energy,
    "fisher-order": _run_order, "cgl-order": _run_order,
    "coeff-audit": _run_coeff_audit,
}


def run_preset(name, overrides=None, out_dir=".", config=None):
    """Execute a preset and write its CSV/JSON (and snapshot) files.

    Returns ``(table, paths)``.  ``overrides`` is a partial config mapping
    merged over the preset defaults; alternatively a fully parsed config
    can be passed directly.
    """
    if config is None:
        config = preset_config(name)
        if overrides:
            config = apply_overrides(config, overrides)
    check_runnable(name, config)
    os.makedirs(out_dir, exist_ok=True)
    out_base = os.path.join(out_dir, name)
    table, extra_paths = _RUNNERS[name](name, config, out_base)
    table.metadata.setdefault("all_rows_failed", False)
    csv_path, json_path = emit(table, out_base)
    return table, [csv_path, json_path, *extra_paths]


def available_presets():
    return list(_RUNNERS)
