"""Named experiment presets, one row each in :data:`PRESET_TABLE`.

Every preset produces one :class:`ResultTable` with the shared schema

    problem, preset, base, method, level, quantity, entry, tau, time,
    value, slope, coefficient, residual, status

and writes ``<name>.csv`` plus a JSON metadata sidecar (and, for the PDE
problems, a final-field snapshot per the deepest method).  A
(method, tau) cell that hits a singularity or yields a non-finite value
is marked failed (see :func:`_measure`) instead of aborting the preset.
"""

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .. import __version__
from ..composition import coefficient_arguments, recursive_family
from ..diagnostics import (
    energy_error_series, envelope_growth, integrate, leading_term, power_law_fit,
    propagate, slope_with_floor, step_count, successive_error, taylor_coefficients,
)
from ..errors import NonFiniteError, SingularityError, ValidationError
from ..problems import (
    CGLParams, S4SIM_MAX_ARG, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    fisher_diffusion_map, fisher_reaction_map, fisher_strang_flow,
    ho_drift_flow, ho_energy, ho_exact, ho_kick_flow, ho_strang_flow,
    kepler_drift_flow, kepler_energy, kepler_initial_conditions,
    kepler_kick_flow, kepler_strang_flow, pulse_pair_profile, s4sim,
)
from ..spectral import SpectralGrid, write_snapshot
from .config import CONFIG_KEYS, PROBLEM_PARAMS, ExperimentConfig, apply_overrides
from .emit import ResultTable, emit

SCHEMA = [
    "problem", "preset", "base", "method", "level", "quantity", "entry",
    "tau", "time", "value", "slope", "coefficient", "residual", "status",
]

#: Error floors below which order-fit samples count as roundoff; the CGL
#: runs accumulate more FFT roundoff per step than the others.
ORDER_FIT_FLOORS = {"kepler": 1e-13, "fisher": 1e-13, "cgl": 5e-13}

#: Radius and node count of ``ho-table1``'s circle of complex steps.
TABLE1_RADIUS, TABLE1_NODES = 1.0, 32


def _harmonic(params, grid_points):
    x0 = np.array([params["q0"], params["p0"]], dtype=complex)
    return None, x0, ho_strang_flow, ho_drift_flow, ho_kick_flow


def _kepler(params, grid_points):
    x0 = kepler_initial_conditions(params["e"]).as_vector()
    return None, x0, kepler_strang_flow, kepler_drift_flow, kepler_kick_flow


def _fisher(params, grid_points):
    grid = SpectralGrid(0.0, 1.0, grid_points)
    x0 = np.asarray(np.sin(2.0 * np.pi * grid.nodes), dtype=complex)
    return (grid, x0, partial(fisher_strang_flow, grid),
            partial(fisher_diffusion_map, grid), fisher_reaction_map)


def _cgl(params, grid_points):
    cgl_params = CGLParams(**params)
    grid = SpectralGrid(-100.0, 200.0, grid_points)
    x0 = np.array([pulse_pair_profile(grid), np.zeros(grid.n_points)], dtype=complex)
    return (grid, x0, partial(cgl_strang_flow, cgl_params, grid),
            partial(cgl_linear_map, cgl_params, grid), partial(cgl_nonlinear_map, cgl_params))


#: Per problem, ``(params, grid_points) -> (grid, x0, strang, a, b)``: the
#: grid (None for an ODE), the initial state, and argument-free builders of
#: the Strang kernel and of the exact flows of the two stages.  A row reads
#: each constructor by its module-level name when it runs, so a name
#: patched on this module is the one that builds the flow.
PROBLEMS = {"harmonic": _harmonic, "kepler": _kepler, "fisher": _fisher, "cgl": _cgl}

#: Per base method, ``(build, max_arg)``: ``build(strang, a, b)`` makes the
#: base from a problem row's builders, and ``max_arg`` is the largest
#: argument of the base's own coefficients.
BASES = {
    "strang": (lambda strang, a, b: strang(), 0.0),
    "s4sim": (lambda strang, a, b: s4sim(a(), b()), S4SIM_MAX_ARG),
}


def _problem_setup(config):
    """Base flow map, grid (PDE only), and initial state for a config."""
    params = {**PROBLEM_PARAMS[config.problem], **config.problem_params}
    grid, x0, *builders = PROBLEMS[config.problem](params, config.grid_points)
    return BASES[config.base_method][0](*builders), grid, x0


def _methods(config, base):
    """Ordered (name, level, flow) triples: the base plus family levels."""
    levels = recursive_family(base, config.levels).levels
    return [(config.base_method, 0, base)] + [
        (f"level{i}", i, level) for i, level in enumerate(levels, start=1)]


def _new_table(name, config):
    table = ResultTable(schema=SCHEMA)
    table.metadata = {
        "preset": name,
        "config": asdict(config),
        "artifact": "pscomp",
        "version": __version__,
        "precision": "f64",
        "schema": SCHEMA,
        "row_semantics": PRESET_TABLE[name].row_semantics,
        "failures": [],
    }
    return table


def _common(name, config, **extra):
    cells = {"problem": config.problem, "preset": name,
             "base": config.base_method}
    cells.update(extra)
    return cells


def _fit_cells(fit, n_ok, needed=3):
    """Cells of a fit row from a ``power_law_fit`` or ``leading_term`` tuple,
    a bare slope, or None: then ``insufficient_samples`` when fewer than
    ``needed`` cells are ``ok``, else ``below_floor`` (the floor left too few)."""
    if fit is None:
        return {"status": "insufficient_samples" if n_ok < needed else "below_floor"}
    if isinstance(fit, float):
        return {"slope": fit, "status": "ok"}
    return dict(zip(("slope", "coefficient", "residual"), fit), status="ok")


def _measure(table, method_name, tau, compute):
    """Run one measured (method, tau) cell; returns ``(values, status)``.

    ``compute()`` runs with numpy's floating-point warnings off and returns
    a tuple of numbers and arrays.  A ``SingularityError`` makes the cell
    ``singular: <message>``, a ``NonFiniteError`` or a nan or inf in the tuple
    ``non_finite: ...``; either way ``values`` is None and the cell gets one
    ``failures`` entry with the error's step (None for a nan or inf in the
    tuple).  A failed cell sets ``all_rows_failed`` unless an ``ok`` cell
    cleared it."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            values = compute()
        if not all(np.isfinite(v).all() for v in values):
            raise NonFiniteError()
    except (SingularityError, NonFiniteError) as exc:
        kind = "singular" if isinstance(exc, SingularityError) else "non_finite"
        error, step = str(exc), exc.step
    else:
        table.metadata["all_rows_failed"] = False
        return values, "ok"
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
    """Per level, the leading terms of the truncation ho_exact - M, the
    symmetry defect M(tau)M(-tau) - I and det M - 1 on a circle of complex
    steps, with M built once per node (M(-tau) is M at the opposite node)."""
    base, _, _ = _problem_setup(config)
    table = _new_table(name, config)
    n = TABLE1_NODES

    def series(method, taus):
        forward = np.array([method.matrix(tau) for tau in taus.tolist()])
        return np.column_stack([
            (np.array([ho_exact(tau) for tau in taus]) - forward).reshape(n, 4),
            (forward @ np.roll(forward, n // 2, axis=0) - np.eye(2)).reshape(n, 4),
            np.linalg.det(forward) - 1.0])

    for method_name, level, method in _methods(config, base)[1:]:
        c = taylor_coefficients(partial(series, method), TABLE1_RADIUS, n)
        readings = [("truncation", f"{k // 2}{k % 2}", c[:, k]) for k in range(4)] + [
            ("symmetry_defect", None, c[:, 4:8]), ("determinant_defect", None, c[:, 8])]
        for quantity, entry, coefficients in readings:
            table.add_row(**_common(name, config, method=method_name, level=level,
                                    quantity=quantity, entry=entry),
                          **_fit_cells(leading_term(coefficients, TABLE1_RADIUS), n))
    return table, []


def _run_ho_energy(name, config, out_base):
    base, _, x0 = _problem_setup(config)
    table = _new_table(name, config)
    method_name, level, method = _methods(config, base)[-1]
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
                                    level=level, quantity=quantity,
                                    tau=tau, value=value, status=status))
    # Growth at or under zero is roundoff: zero is this fit's floor.
    fit = power_law_fit(*zip(*positive)) if len(positive) >= 3 else None
    n_ok = len(config.tau_list) - len(table.metadata["failures"])
    table.add_row(**_common(name, config, method=method_name,
                            level=level, quantity="secular_order"),
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
    audited = (("strang", 3), ("s4sim", 4))
    table.metadata["families"] = [{"base_method": b, "levels": n} for b, n in audited]
    _, _, *builders = PROBLEMS["harmonic"](PROBLEM_PARAMS["harmonic"], None)
    for base_name, levels in audited:
        build, base_arg = BASES[base_name]
        family = recursive_family(build(*builders), levels)
        max_arg, all_positive = coefficient_arguments(family, base_arg)
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


def _dyadic(tau0, count):
    return tuple(tau0 * 0.5**j for j in range(count))


@dataclass(frozen=True)
class Preset:
    """A preset's default config, the config fields its runner reads, the
    runner ``(name, config, out_base) -> (table, extra paths)``, its
    ``pscomp-bench list`` line and its sidecar's ``row_semantics``."""
    config: ExperimentConfig
    reads: tuple
    runner: object
    description: str
    row_semantics: str


_ORDER_ROWS = ("the quantity column names what the value column holds "
               "(successive_error/energy_error rows carry E_tau per step size; "
               "*_fit rows carry slope/coefficient/residual of the power-law fit)")

#: Every preset, by name.  Values follow the standard protocol of each
#: experiment (see README for the desk-scale deviations); a field left out
#: keeps the ``ExperimentConfig`` default (the Strang base, three levels).
PRESET_TABLE = {
    "ho-table1": Preset(
        ExperimentConfig(problem="harmonic", problem_params={"q0": 2.5, "p0": 0.0}),
        ("base_method", "levels"), _run_ho_table1,
        "harmonic oscillator truncation/defect coefficient table",
        "one row per (level, series): slope, coefficient and residual hold the "
        "leading degree, its coefficient and the noise ratio of the Taylor "
        "coefficients on a circle of complex steps"),
    "ho-energy": Preset(
        ExperimentConfig(problem="harmonic", levels=1, tau_list=(0.2, 0.1, 0.05),
                         t_final=1000.0, problem_params={"q0": 2.5, "p0": 0.0}),
        ("base_method", "levels", "tau_list", "t_final", "problem_params"), _run_ho_energy,
        "harmonic oscillator long-run energy error and secular growth",
        "per step size, energy_plateau and energy_envelope rows carry the largest "
        "relative energy error over the first and the last 5% of the run, and "
        "secular_growth rows their difference; the secular_order row carries "
        "slope/coefficient/residual of the power-law fit of the positive growths "
        "against the step size"),
    "kepler-order": Preset(
        ExperimentConfig(problem="kepler", tau_list=_dyadic(20.0 / 250.0, 6),
                         t_final=20.0, problem_params={"e": 0.6}),
        ("base_method", "levels", "tau_list", "t_final", "problem_params"), _run_order,
        "Kepler final-time energy-error convergence orders", _ORDER_ROWS),
    "kepler-energy": Preset(
        ExperimentConfig(problem="kepler", levels=2, tau_list=(0.05,), t_final=200.0,
                         problem_params={"e": 0.6}),
        ("base_method", "levels", "tau_list", "t_final", "problem_params"),
        _run_kepler_energy, "Kepler energy-error evolution at fixed step",
        "one energy_error row per (method, tau, time): value holds |H - H0| / |H0| "
        "at the time in the time column, at about 500 evenly spaced times per run"),
    "fisher-order": Preset(
        ExperimentConfig(problem="fisher", levels=2, tau_list=_dyadic(0.05, 5),
                         t_final=1.0, grid_points=128),
        ("base_method", "levels", "tau_list", "t_final", "grid_points"), _run_order,
        "reaction-diffusion successive-error convergence orders", _ORDER_ROWS),
    "cgl-order": Preset(
        ExperimentConfig(problem="cgl", levels=2, tau_list=_dyadic(0.05, 5), t_final=1.0,
                         grid_points=512, problem_params={"c1": 1.0, "c3": -2.0, "eps": 1.0}),
        ("base_method", "levels", "tau_list", "t_final", "grid_points", "problem_params"),
        _run_order, "Ginzburg-Landau successive-error convergence orders", _ORDER_ROWS),
    "coeff-audit": Preset(
        ExperimentConfig(problem="harmonic"), (), _run_coeff_audit,
        "coefficient-argument audit of the recursive families",
        "a max_coefficient_argument row per family: value holds the largest "
        "|argument| of its step coefficients, coefficient that over pi/2, status "
        "whether all have a positive real part; a declared_order row per level: "
        "value holds its order, status capped when it grew by less than 2"),
}
#: Default config per preset.
PRESETS = {name: preset.config for name, preset in PRESET_TABLE.items()}


def preset_config(name):
    if not isinstance(name, str) or name not in PRESET_TABLE:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESET_TABLE))}"
        )
    return PRESET_TABLE[name].config


def check_runnable(name, config):
    """Reject a config that preset ``name`` would not run as given: each
    field its row reads must be set (``t_final > 0``, a non-empty
    ``tau_list``, a ``grid_points``), and every other field, ``problem``
    included, must keep the preset's own value, as the runner ignores it."""
    preset, reads = preset_config(name), PRESET_TABLE[name].reads
    for key in CONFIG_KEYS:
        value, own = getattr(config, key), getattr(preset, key)
        if key not in reads and value != own:
            raise ValidationError(f"preset {name} does not read {key}: it must be "
                                  f"{own!r}, got {value!r}")
    if "t_final" in reads and config.t_final <= 0:
        raise ValidationError(f"t_final must be positive for preset {name}, "
                              f"got {config.t_final!r}")
    if "tau_list" in reads and not config.tau_list:
        raise ValidationError(f"tau_list must not be empty for preset {name}")
    if "grid_points" in reads and config.grid_points is None:
        raise ValidationError(f"grid_points must be set for preset {name}")


def parse_config(text, preset=None):
    """Parse a JSON config document, filling defaults from a preset.

    ``preset`` may come from the caller or from the document's own
    ``preset`` key (they must agree when both are given).
    """
    try:
        document = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValidationError("config must be a JSON object")
    doc_preset = document.pop("preset", None)
    if doc_preset is not None and preset is not None and doc_preset != preset:
        raise ValidationError(
            f"config names preset {doc_preset!r} but {preset!r} was requested"
        )
    preset = preset or doc_preset
    if preset is None:
        raise ValidationError("no preset named (pass one or add a 'preset' key)")
    config = apply_overrides(preset_config(preset), document)
    check_runnable(preset, config)
    return config


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
    table, extra_paths = PRESET_TABLE[name].runner(name, config, out_base)
    table.metadata.setdefault("all_rows_failed", False)
    csv_path, json_path = emit(table, out_base)
    return table, [csv_path, json_path, *extra_paths]


def available_presets():
    return list(PRESET_TABLE)
