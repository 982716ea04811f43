"""Named experiment presets, one row each in :data:`PRESET_TABLE`, and the
:class:`ExperimentConfig` they run, checked against its problem and base rows.

:func:`run_preset` opens one :class:`ResultTable` per run, with the schema

    problem, preset, base, method, level, quantity, entry, tau, time,
    value, slope, coefficient, residual, status

and the run's ``problem``, ``preset`` and ``base`` as cells every row shares.
The preset's runner adds the rows; ``<name>.csv``, a JSON metadata sidecar
and, for the PDE problems, a final-field snapshot per method are written.  A
(method, tau) cell that hits a singularity or yields a non-finite value is
marked failed (see :func:`_measure`) instead of aborting the preset.  The
order presets' successive error is computed in :func:`_run_order` only.
"""

import contextlib
import json
import math
import os
import reprlib
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from .. import __version__
from ..composition import coefficient_arguments, recursive_family
from ..diagnostics import (
    energy_error_series, envelope_growth, integrate, leading_term, power_law_fit,
    propagate, propagate_stacked, slope_with_floor, step_count, taylor_coefficients,
)
from ..errors import NonFiniteError, SingularityError, ValidationError
from ..problems import (
    CGLParams, S4SIM_MAX_ARG, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    fisher_diffusion_map, fisher_reaction_map, fisher_strang_flow,
    ho_drift_flow, ho_energy, ho_exact, ho_kick_flow, ho_strang_flow,
    kepler_drift_flow, kepler_energy, kepler_initial_conditions,
    kepler_kick_flow, kepler_strang_flow, pulse_pair_profile, s4sim,
)
from ..spectral import SpectralGrid, _is_power_of_two, write_snapshot
from .emit import ResultTable, emit

SCHEMA = [
    "problem", "preset", "base", "method", "level", "quantity", "entry",
    "tau", "time", "value", "slope", "coefficient", "residual", "status",
]

#: Most steps one (tau, t_final) run may take: 50 times the largest default.
MAX_STEPS = 10**6

#: Radius and node count of ``ho-table1``'s circle of complex steps.
TABLE1_RADIUS, TABLE1_NODES = 1.0, 32


def _harmonic(params, grid_points):
    x0 = (complex(params["q0"]), complex(params["p0"]))
    return None, x0, ho_strang_flow, ho_drift_flow, ho_kick_flow


def _kepler(params, grid_points):
    x0 = tuple(kepler_initial_conditions(params["e"]).as_vector().tolist())
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


def _check_harmonic(params):
    q0, p0 = float(params["q0"]), float(params["p0"])
    if not 0.0 < 0.5 * (q0 * q0 + p0 * p0) < math.inf:
        raise ValidationError(f"problem_params q0={_shown(q0)}, p0={_shown(p0)}: the energy "
                              "0.5*(q0^2 + p0^2) must be positive and finite")


def _check_kepler(params):
    if not 0.0 <= params["e"] < 1.0:
        raise ValidationError(f"problem_params.e must lie in [0, 1), got {_shown(params['e'])}")


@dataclass(frozen=True)
class Problem:
    """A problem's ``problem_params`` defaults, a ``check`` of the merged
    params (or None), its ``setup(params, grid_points) -> (grid, x0, strang,
    a, b)``, the order-fit ``floor``, the conserved ``energy`` an order run
    fits (else the successive error, computed in :func:`_run_order`) and the
    ``field`` of a state that a snapshot writes.  ``setup`` gives the grid
    (None for an ODE), x0 and argument-free builders of the Strang kernel and
    the exact stage flows; it reads each by its module-level name, so a name
    patched here builds the flow."""
    params: dict
    check: object
    setup: object
    floor: float = None
    energy: object = None
    field: object = None


#: Every problem, by name.  The CGL runs accumulate more FFT roundoff per
#: step than the others, hence their higher floor.
PROBLEMS = {
    "harmonic": Problem({"q0": 2.5, "p0": 0.0}, _check_harmonic, _harmonic,
                        energy=ho_energy),
    "kepler": Problem({"e": 0.6}, _check_kepler, _kepler, floor=1e-13,
                      energy=kepler_energy),
    "fisher": Problem({}, None, _fisher, floor=1e-13, field=lambda u: u),
    "cgl": Problem({"c1": 1.0, "c3": -2.0, "eps": 1.0}, None, _cgl, floor=5e-13,
                   field=lambda vw: vw[0] + 1j * vw[1]),
}

#: Per base method, ``(build, max_arg)``: ``build(strang, a, b)`` makes the
#: base from a problem row's builders, and ``max_arg`` is the largest
#: argument of the base's own coefficients.
BASES = {
    "strang": (lambda strang, a, b: strang(), 0.0),
    "s4sim": (lambda strang, a, b: s4sim(a(), b()), S4SIM_MAX_ARG),
}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    base_method: str = "strang"
    levels: int = 3
    tau_list: tuple = ()
    t_final: float = 0.0
    grid_points: int = None
    problem_params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_choice("problem", self.problem, PROBLEMS)
        _check_choice("base_method", self.base_method, BASES)
        if not _is_int(self.levels) or not 1 <= self.levels <= 4:
            raise ValidationError(f"levels must be an integer in 1..4, got {_shown(self.levels)}")
        if not isinstance(self.tau_list, (list, tuple)):
            raise ValidationError(
                f"tau_list must be a list of numbers, got {_shown(self.tau_list)}")
        taus = tuple(_finite("tau_list entry", t) for t in self.tau_list)
        if any(t <= 0 for t in taus):
            raise ValidationError("tau_list entries must be positive")
        if any(a <= b for a, b in zip(taus, taus[1:])):
            raise ValidationError("tau_list must be strictly decreasing")
        if _finite("t_final", self.t_final) < 0:
            raise ValidationError(f"t_final must not be negative, got {_shown(self.t_final)}")
        if self.t_final > 0:
            # The successive error (a problem with no energy) also runs tau/2.
            halves = tuple(t / 2.0 for t in taus) if PROBLEMS[self.problem].energy is None else ()
            for step in taus + halves:
                if step_count(self.t_final, step) > MAX_STEPS:
                    raise ValidationError(f"t_final={self.t_final} takes over {MAX_STEPS} steps "
                                          f"of tau{'' if step in taus else '/2'}={step}")
        if self.grid_points is not None:
            n = self.grid_points
            if not _is_int(n) or n > 65536 or not _is_power_of_two(n):
                raise ValidationError(
                    f"grid_points must be a power of two in 2..65536, got {_shown(n)}"
                )
        _check_problem_params(self.problem, self.problem_params)
        object.__setattr__(self, "tau_list", taus)
        object.__setattr__(self, "problem_params",
                           {**PROBLEMS[self.problem].params, **self.problem_params})


class _MessageRepr(reprlib.Repr):
    """``repr`` of a config value for a message: containers nested past ``maxlevel``
    print as ``[...]`` (a deep one would exhaust the stack); nothing else is cut or reordered."""

    def __init__(self):
        super().__init__()
        self.maxlevel = 10
        self.maxtuple = self.maxlist = self.maxstring = self.maxlong = sys.maxsize

    def repr_dict(self, x, level):
        items = (f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}" for k, v in x.items())
        return "{...}" if x and level <= 0 else "{" + ", ".join(items) + "}"


_shown = _MessageRepr().repr


def _check_choice(name, value, table):
    # A string test first: ``in`` on a dict hashes its operand.
    if not isinstance(value, str) or value not in table:
        raise ValidationError(f"{name} must be one of {tuple(table)}, got {_shown(value)}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(name, value):
    """``value`` as a float; anything but a finite number names ``name``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ValidationError(f"{name} must be a finite number, got {_shown(value)}")


def _check_problem_params(problem, params):
    if not isinstance(params, dict):
        raise ValidationError(f"problem_params must be an object, got {_shown(params)}")
    row = PROBLEMS[problem]
    unknown = sorted(map(str, set(params) - set(row.params)))
    if unknown:
        raise ValidationError(
            f"unknown problem_params keys for {problem}: {', '.join(unknown)} "
            f"(allowed: {', '.join(row.params) or 'none'})"
        )
    for key, value in params.items():
        _finite(f"problem_params.{key}", value)
    if row.check is not None:
        row.check({**row.params, **params})


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def apply_overrides(base, overrides):
    """Merge a partial config mapping over ``base`` and re-validate.

    ``problem_params`` merges key by key over the defaults of the same
    problem; every other field replaces the default wholesale.  Unknown
    keys are listed in the error.
    """
    overrides = dict(overrides)
    unknown = sorted(map(str, set(overrides) - set(CONFIG_KEYS)))
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    params = overrides.get("problem_params", {})
    if not isinstance(params, dict):
        raise ValidationError("problem_params must be an object")
    if overrides.get("problem", base.problem) == base.problem:
        params = {**base.problem_params, **params}
    overrides["problem_params"] = params
    return replace(base, **overrides)


def _problem_setup(config):
    """Base flow map, grid (PDE only), and initial state for a config."""
    grid, x0, *builders = PROBLEMS[config.problem].setup(config.problem_params,
                                                         config.grid_points)
    return BASES[config.base_method][0](*builders), grid, x0


def _methods(config, base):
    """Ordered (name, level, flow) triples: the base plus family levels."""
    levels = recursive_family(base, config.levels).levels
    return [(config.base_method, 0, base)] + [
        (f"level{i}", i, level) for i, level in enumerate(levels, start=1)]


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


def _run_order(config, table, out_base):
    """Per method, one error cell per tau and the order fit.  ``final(tau)``
    runs each distinct step once, keeping a final state by its exact step (a
    run that raises is not kept); a successive-error cell is the sup-norm
    distance between the final states at tau and tau/2, the tau run first.
    A batched method runs its distinct steps as one lazy stack, pulled as
    far as each ``final`` needs; once the stack raises, every step it has
    not given runs through ``propagate``, which names the failing step."""
    base, grid, x0 = _problem_setup(config)
    problem = PROBLEMS[config.problem]
    quantity = "successive_error"
    if problem.energy is not None:
        quantity, h0 = "energy_error", problem.energy(x0)
    runs = {tau: step_count(config.t_final, tau) for cell in config.tau_list
            for tau in ((cell, cell / 2.0) if quantity == "successive_error" else (cell,))}

    snapshots = []
    for method_name, level, method in _methods(config, base):
        finals = {}
        stack = propagate_stacked(method, x0, runs.items()) if method.meta.batched else ()

        def final(tau):
            if tau not in finals:
                # A stack that raised is closed: it yields nothing more.
                with contextlib.suppress(SingularityError, NonFiniteError):
                    for done, state in stack:
                        finals[done] = state
                        if done == tau:
                            break
            if tau not in finals:
                finals[tau] = propagate(method, x0, tau, runs[tau])
            return finals[tau]

        def measure(tau):
            if quantity == "successive_error":
                return (float(np.max(np.abs(final(tau) - final(tau / 2.0)))),)
            return (abs(problem.energy(final(tau)) - h0) / abs(h0),)

        taus, errors = [], []
        for tau in config.tau_list:
            result, status = _measure(table, method_name, tau, lambda: measure(tau))
            if result is not None:
                taus.append(tau)
                errors.append(result[0])
            table.add_row(method=method_name, level=level, quantity=quantity, tau=tau,
                          value=math.nan if result is None else result[0], status=status)
        slope = slope_with_floor(taus, errors, floor=problem.floor)
        table.add_row(method=method_name, level=level, quantity="order_fit",
                      **_fit_cells(slope, len(taus), needed=2))
        if problem.field is not None and taus:
            path = f"{out_base}_{method_name}_field.txt"
            write_snapshot(grid, problem.field(finals[taus[-1] / 2.0]), path)
            snapshots.append(path)
    return snapshots


def _run_ho_table1(config, table, out_base):
    """Per level, the leading terms of the truncation ho_exact - M, the
    symmetry defect M(tau)M(-tau) - I and det M - 1 on a circle of complex
    steps, with M built once per node (M(-tau) is M at the opposite node)."""
    base, _, _ = _problem_setup(config)
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
            table.add_row(method=method_name, level=level, quantity=quantity, entry=entry,
                          **_fit_cells(leading_term(coefficients, TABLE1_RADIUS), n))
    return []


def _run_ho_energy(config, table, out_base):
    base, _, x0 = _problem_setup(config)
    energy = PROBLEMS[config.problem].energy
    method_name, level, method = _methods(config, base)[-1]
    positive = []
    for tau in config.tau_list:
        n = step_count(config.t_final, tau)
        values, status = _measure(table, method_name, tau, lambda: envelope_growth(
            energy_error_series(integrate(method, x0, tau, n), energy)))
        if values is not None and values[2] > 0:
            positive.append((tau, values[2]))
        for quantity, value in zip(("energy_plateau", "energy_envelope",
                                    "secular_growth"), values or (math.nan,) * 3):
            table.add_row(method=method_name, level=level, quantity=quantity,
                          tau=tau, value=value, status=status)
    # Growth at or under zero is roundoff: zero is this fit's floor.
    fit = power_law_fit(*zip(*positive)) if len(positive) >= 3 else None
    n_ok = len(config.tau_list) - len(table.metadata["failures"])
    table.add_row(method=method_name, level=level, quantity="secular_order",
                  **_fit_cells(fit, n_ok))
    return []


def _run_kepler_energy(config, table, out_base):
    """Energy error against time per method and tau, at about 500 points each."""
    base, _, x0 = _problem_setup(config)
    energy = PROBLEMS[config.problem].energy
    for method_name, level, method in _methods(config, base):
        for tau in config.tau_list:
            n = step_count(config.t_final, tau)
            values, status = _measure(table, method_name, tau, lambda: (
                energy_error_series(integrate(method, x0, tau, n), energy),))
            points = [(None, math.nan)] if values is None else [
                (tau * idx, float(values[0][idx]))
                for idx in range(0, n + 1, max(1, n // 500))]
            for time, value in points:
                table.add_row(method=method_name, level=level, quantity="energy_error",
                              tau=tau, time=time, value=value, status=status)
    return []


def _run_coeff_audit(config, table, out_base):
    audited = (("strang", 3), ("s4sim", 4))
    table.metadata["families"] = [{"base_method": b, "levels": n} for b, n in audited]
    for base_name, levels in audited:
        base, _, _ = _problem_setup(replace(config, base_method=base_name))
        family = recursive_family(base, levels)
        max_arg, all_positive = coefficient_arguments(family, BASES[base_name][1])
        status = "all_positive_real" if all_positive else "nonpositive_real_present"
        table.add_row(base=base_name, method=f"{base_name}x{levels}",
                      quantity="max_coefficient_argument", value=max_arg,
                      coefficient=max_arg / (math.pi / 2.0), status=status)
        for level, flow in enumerate(family.levels, start=1):
            table.add_row(base=base_name, method=f"level{level}", level=level,
                          quantity="declared_order", value=float(flow.meta.order),
                          status="capped" if family.capped[level - 1] else "ok")
    return []


def _dyadic(tau0, count):
    return tuple(tau0 * 0.5**j for j in range(count))


@dataclass(frozen=True)
class Preset:
    """A preset's default config, the config fields its runner reads, the
    runner ``(config, table, out_base) -> extra paths`` that adds the run's
    rows, its ``pscomp-bench list`` line and its sidecar's ``row_semantics``."""
    config: ExperimentConfig
    reads: tuple
    runner: object
    description: str
    row_semantics: str


_ORDER_ROWS = ("the quantity column names what the value column holds "
               "(successive_error/energy_error rows carry E_tau per step size; order_fit "
               "rows carry in slope the least-squares log-log slope over the samples above "
               "the problem's floor, or the two-point slope when only two are left)")

#: Every preset, by name.  Values follow the standard protocol of each
#: experiment (see README for the desk-scale deviations); a field left out
#: keeps the ``ExperimentConfig`` default (the Strang base, three levels).
PRESET_TABLE = {
    "ho-table1": Preset(
        ExperimentConfig(problem="harmonic"),
        ("base_method", "levels"), _run_ho_table1,
        "harmonic oscillator truncation/defect coefficient table",
        "one row per (level, series): slope, coefficient and residual hold the "
        "leading degree, its coefficient and the noise ratio of the Taylor "
        "coefficients on a circle of complex steps"),
    "ho-energy": Preset(
        ExperimentConfig(problem="harmonic", levels=1, tau_list=(0.2, 0.1, 0.05),
                         t_final=1000.0),
        ("base_method", "levels", "tau_list", "t_final", "problem_params"), _run_ho_energy,
        "harmonic oscillator long-run energy error and secular growth",
        "per step size, energy_plateau and energy_envelope rows carry the largest "
        "relative energy error over the first and the last 5% of the run, and "
        "secular_growth rows their difference; the secular_order row carries "
        "slope/coefficient/residual of the power-law fit of the positive growths "
        "against the step size"),
    "kepler-order": Preset(
        ExperimentConfig(problem="kepler", tau_list=_dyadic(20.0 / 250.0, 6), t_final=20.0),
        ("base_method", "levels", "tau_list", "t_final", "problem_params"), _run_order,
        "Kepler final-time energy-error convergence orders", _ORDER_ROWS),
    "kepler-energy": Preset(
        ExperimentConfig(problem="kepler", levels=2, tau_list=(0.05,), t_final=200.0),
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
                         grid_points=512),
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
            f"unknown preset {_shown(name)}; available: {', '.join(sorted(PRESET_TABLE))}"
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
                                  f"{_shown(own)}, got {_shown(value)}")
    if "t_final" in reads and config.t_final <= 0:
        raise ValidationError(f"t_final must be positive for preset {name}, "
                              f"got {_shown(config.t_final)}")
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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int of 4301+ digits
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ValidationError("config must be a JSON object")
    doc_preset = document.pop("preset", None)
    if doc_preset is not None and preset is not None and doc_preset != preset:
        raise ValidationError(
            f"config names preset {_shown(doc_preset)} but {_shown(preset)} was requested"
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
    merged over the preset defaults; a fully parsed ``config`` replaces
    both, so passing it with ``overrides`` raises ``ValidationError``.
    """
    if config is None:
        config = preset_config(name)
        if overrides:
            config = apply_overrides(config, overrides)
    elif overrides:
        raise ValidationError("run_preset takes overrides or config, not both")
    check_runnable(name, config)
    os.makedirs(out_dir, exist_ok=True)
    out_base = os.path.join(out_dir, name)
    table = ResultTable(schema=SCHEMA, metadata={
        "preset": name,
        "config": asdict(config),
        "artifact": "pscomp",
        "version": __version__,
        "precision": "f64",
        "schema": SCHEMA,
        "row_semantics": PRESET_TABLE[name].row_semantics,
        "failures": [],
    }, shared={"problem": config.problem, "preset": name, "base": config.base_method})
    extra_paths = PRESET_TABLE[name].runner(config, table, out_base)
    table.metadata.setdefault("all_rows_failed", False)
    csv_path, json_path = emit(table, out_base)
    return table, [csv_path, json_path, *extra_paths]


def available_presets():
    return list(PRESET_TABLE)
