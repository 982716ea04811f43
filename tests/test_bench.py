"""Config parsing, emission determinism, presets, and the CLI."""

import csv
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pscomp.bench.run as bench_run
from pscomp.bench import (
    PRESETS, ExperimentConfig, ResultTable, apply_overrides, available_presets, emit,
    parse_config, preset_config, run_preset,
)
from pscomp.bench.cli import main
from pscomp.bench.config import BASE_METHODS, MAX_STEPS, PROBLEMS
from pscomp.bench.run import PRESET_TABLE
from pscomp.composition import recursive_family
from pscomp.diagnostics import successive_error
from pscomp.errors import SingularityError, ValidationError
from pscomp.flowmap import STRANG_META, FlowMap
from pscomp.problems import (
    CGLParams, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    fisher_diffusion_map, fisher_reaction_map, fisher_strang_flow,
    ho_drift_flow, ho_kick_flow, ho_strang_flow, kepler_drift_flow,
    kepler_initial_conditions, kepler_kick_flow, kepler_strang_flow,
    pulse_pair_profile, s4sim,
)
from pscomp.spectral import SpectralGrid


def test_parse_empty_document_uses_preset_defaults():
    config = parse_config("", preset="kepler-order")
    assert config.problem == "kepler"
    assert config.problem_params["e"] == 0.6
    assert config.t_final == 20.0
    assert config.tau_list[0] == pytest.approx(20.0 / 250.0)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys: colour, speed"):
        parse_config('{"colour": 1, "speed": 2}', preset="kepler-order")


def test_parse_rejects_increasing_tau_list():
    with pytest.raises(ValidationError, match="decreasing"):
        parse_config('{"tau_list": [0.1, 0.2]}', preset="kepler-order")


def test_parse_rejects_bad_grid():
    with pytest.raises(ValidationError, match="power of two"):
        parse_config('{"grid_points": 100}', preset="fisher-order")


def test_parse_rejects_non_multiple_t_final():
    with pytest.raises(ValidationError, match="integer multiple"):
        parse_config('{"tau_list": [0.3], "t_final": 1.0}', preset="kepler-order")


def test_parse_rejects_preset_mismatch():
    with pytest.raises(ValidationError, match="was requested"):
        parse_config('{"preset": "cgl-order"}', preset="kepler-order")


def test_parse_uses_document_preset():
    config = parse_config('{"preset": "fisher-order"}')
    assert config.problem == "fisher"
    assert config.grid_points == 128


def test_parse_requires_some_preset():
    with pytest.raises(ValidationError, match="preset"):
        parse_config("{}")


def test_parse_merges_problem_params():
    config = parse_config('{"problem_params": {"e": 0.3}}', preset="kepler-order")
    assert config.problem_params == {"e": 0.3}
    config = parse_config('{"problem_params": {"c1": 0.5}}', preset="cgl-order")
    assert config.problem_params["c1"] == 0.5
    assert config.problem_params["c3"] == -2.0


def test_config_levels_range():
    with pytest.raises(ValidationError, match="levels"):
        ExperimentConfig(problem="kepler", levels=5)
    with pytest.raises(ValidationError):
        ExperimentConfig(problem="nosuch")


def test_config_step_bound():
    ExperimentConfig(problem="harmonic", tau_list=(1.0,), t_final=float(MAX_STEPS))
    with pytest.raises(ValidationError, match="t_final"):
        ExperimentConfig(problem="harmonic", tau_list=(1.0,), t_final=MAX_STEPS + 1.0)


def test_apply_overrides_keeps_validation():
    base = preset_config("fisher-order")
    config = apply_overrides(base, {"grid_points": 64, "levels": 1})
    assert config.grid_points == 64
    with pytest.raises(ValidationError):
        apply_overrides(base, {"nonsense": True})
    # Keys of a Python mapping need not be strings; they are named all the same.
    with pytest.raises(ValidationError, match="unknown config keys: 1, x"):
        apply_overrides(base, {1: True, "x": 2})
    with pytest.raises(ValidationError, match="problem_params keys for fisher: 1, x"):
        apply_overrides(base, {"problem_params": {1: 0.5, "x": 0.1}})


def test_emit_header_only(tmp_path):
    table = ResultTable(schema=["a", "b"], metadata={"x": 1})
    csv_path, json_path = emit(table, str(tmp_path / "empty"))
    assert Path(csv_path).read_text() == "a,b\n"
    assert json.loads(Path(json_path).read_text()) == {"x": 1}


def test_emit_formats_cells(tmp_path):
    table = ResultTable(schema=["name", "count", "value", "flag", "missing"])
    table.add_row(name="row", count=3, value=math.nan, flag=True)
    csv_path, _ = emit(table, str(tmp_path / "cells"))
    lines = Path(csv_path).read_text().splitlines()
    assert lines[1] == "row,3,nan,true,"


def test_emit_uses_lf_endings(tmp_path):
    table = ResultTable(schema=["a"])
    table.add_row(a=1.0)
    csv_path, _ = emit(table, str(tmp_path / "lf"))
    raw = Path(csv_path).read_bytes()
    assert b"\r" not in raw


def test_emit_17_significant_digits(tmp_path):
    table = ResultTable(schema=["v"])
    table.add_row(v=1.0 / 3.0)
    csv_path, _ = emit(table, str(tmp_path / "digits"))
    cell = Path(csv_path).read_text().splitlines()[1]
    assert cell == "3.3333333333333331e-01"


def test_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    for out in (first, second):
        run_preset("coeff-audit", out_dir=str(out))
    for name in ("coeff-audit.csv", "coeff-audit.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_preset_applies_overrides(tmp_path):
    table, paths = run_preset(
        "fisher-order",
        overrides={"tau_list": [0.1, 0.05], "grid_points": 32, "levels": 1},
        out_dir=str(tmp_path),
    )
    idx = {c: i for i, c in enumerate(table.schema)}
    methods = {r[idx["method"]] for r in table.rows}
    assert methods == {"strang", "level1"}
    snapshot = [p for p in paths if p.endswith("field.txt")]
    assert snapshot, "expected a field snapshot for PDE presets"


def test_run_preset_unknown_name():
    with pytest.raises(ValidationError, match="unknown preset"):
        run_preset("nope")
    with pytest.raises(ValidationError, match="unknown preset"):
        run_preset("nope", config=preset_config("coeff-audit"))


def test_cli_list(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert available_presets() == list(PRESETS)
    assert lines == [f"{name:14s} {PRESET_TABLE[name].description}"
                     for name in available_presets()]


def test_cli_run_coeff_audit(tmp_path, capsys):
    code = main(["run", "coeff-audit", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "coeff-audit.csv" in out
    assert (tmp_path / "coeff-audit.csv").exists()
    assert (tmp_path / "coeff-audit.json").exists()


def test_cli_run_with_config_overrides(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        {"tau_list": [0.1, 0.05], "grid_points": 32, "levels": 1}
    ))
    code = main(["run", "fisher-order", "--config", str(config_path),
                 "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "fisher-order.json").read_text())
    assert data["config"]["grid_points"] == 32


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"preset": "kepler-order", "levels": 2}')
    assert main(["validate", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text('{"preset": "kepler-order", "tau_list": [0.1, 0.2]}')
    assert main(["validate", str(bad)]) == 2
    assert "decreasing" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing)]) == 2


def test_cli_validate_rejects_t_final_off_a_multiple(tmp_path, capsys):
    # 5000.0000025 steps of 0.2: more than rounding, so no whole step count.
    doc = tmp_path / "off.json"
    doc.write_text('{"preset": "ho-energy", "tau_list": [0.2, 0.1], '
                   '"t_final": 1000.0000005}')
    assert main(["validate", str(doc)]) == 2
    assert "integer multiple" in capsys.readouterr().err


def test_cli_run_invalid_config_file(tmp_path, capsys):
    config_path = tmp_path / "broken.json"
    config_path.write_text('{"tau_list": [0.1, 0.2]}')
    code = main(["run", "kepler-order", "--config", str(config_path),
                 "--out", str(tmp_path)])
    assert code == 2


def test_preset_metadata_echoes_config(tmp_path):
    table, _ = run_preset("coeff-audit", out_dir=str(tmp_path))
    assert table.metadata["preset"] == "coeff-audit"
    assert table.metadata["precision"] == "f64"
    assert table.metadata["config"]["problem"] == "harmonic"


def test_coeff_audit_sidecar_names_each_family_it_audits(tmp_path):
    table, _ = run_preset("coeff-audit", out_dir=str(tmp_path))
    sidecar = json.loads((tmp_path / "coeff-audit.json").read_text())
    idx = {c: i for i, c in enumerate(table.schema)}
    depth = {}
    for row in table.rows:
        if row[idx["quantity"]] == "declared_order":
            depth[row[idx["base"]]] = max(depth.get(row[idx["base"]], 0), row[idx["level"]])
    assert sidecar["families"] == [{"base_method": base, "levels": levels}
                                   for base, levels in depth.items()]
    assert depth == {"strang": 3, "s4sim": 4}


#: Per preset with its own row sentence: a small run and the CSV columns,
#: besides the quantities, that the sentence must name.
ROW_SEMANTICS_RUNS = {
    "ho-energy": ({"tau_list": [0.2, 0.1, 0.05], "t_final": 10.0}, ()),
    "kepler-energy": ({"tau_list": [0.1], "t_final": 1.0, "levels": 1}, ("time",)),
    "coeff-audit": ({}, ()),
}


@pytest.mark.parametrize("preset", sorted(ROW_SEMANTICS_RUNS))
def test_sidecar_row_semantics_names_every_quantity(tmp_path, preset):
    overrides, columns = ROW_SEMANTICS_RUNS[preset]
    run_preset(preset, overrides=overrides, out_dir=str(tmp_path))
    sentence = json.loads((tmp_path / f"{preset}.json").read_text())["row_semantics"]
    with open(tmp_path / f"{preset}.csv", newline="") as fh:
        quantities = {row["quantity"] for row in csv.DictReader(fh)}
    for word in (*quantities, *columns):
        assert re.search(rf"\b{word}\b", sentence), word


FISHER_GRID = SpectralGrid(0.0, 1.0, 16)
CGL_GRID = SpectralGrid(-100.0, 200.0, 16)
CGL = CGLParams(c1=1.0, c3=-2.0, eps=1.0)

#: Per (problem, base_method): the base at the default parameters and
#: N = 16, built by hand from the constructors.
EXPLICIT_BASES = {
    ("harmonic", "strang"): lambda: ho_strang_flow(),
    ("harmonic", "s4sim"): lambda: s4sim(ho_drift_flow(), ho_kick_flow()),
    ("kepler", "strang"): lambda: kepler_strang_flow(),
    ("kepler", "s4sim"): lambda: s4sim(kepler_drift_flow(), kepler_kick_flow()),
    ("fisher", "strang"): lambda: fisher_strang_flow(FISHER_GRID),
    ("fisher", "s4sim"): lambda: s4sim(fisher_diffusion_map(FISHER_GRID),
                                       fisher_reaction_map()),
    ("cgl", "strang"): lambda: cgl_strang_flow(CGL, CGL_GRID),
    ("cgl", "s4sim"): lambda: s4sim(cgl_linear_map(CGL, CGL_GRID), cgl_nonlinear_map(CGL)),
}
#: Per problem: the grid and the initial state, built by hand.
EXPLICIT_STARTS = {
    "harmonic": (None, np.array([2.5, 0.0], dtype=complex)),
    "kepler": (None, kepler_initial_conditions(0.6).as_vector()),
    "fisher": (FISHER_GRID, np.sin(2.0 * np.pi * FISHER_GRID.nodes).astype(complex)),
    "cgl": (CGL_GRID, np.array([pulse_pair_profile(CGL_GRID), np.zeros(16)], dtype=complex)),
}


def test_problem_and_base_tables_cover_the_config_choices():
    # The CLI validates against config's lists and runs through the tables.
    assert tuple(bench_run.BASES) == BASE_METHODS
    assert tuple(bench_run.PROBLEMS) == PROBLEMS


@pytest.mark.parametrize("base_method", BASE_METHODS)
@pytest.mark.parametrize("problem", PROBLEMS)
def test_problem_setup_matches_the_explicit_constructors(problem, base_method):
    config = ExperimentConfig(problem=problem, base_method=base_method, grid_points=16)
    base, grid, x0 = bench_run._problem_setup(config)
    expected_grid, expected_x0 = EXPLICIT_STARTS[problem]
    expected_base = EXPLICIT_BASES[problem, base_method]()
    assert grid == expected_grid
    assert x0.tobytes() == expected_x0.tobytes()
    tau = 0.05 + 0.02j
    assert base(x0, tau).tobytes() == expected_base(x0, tau).tobytes()
    assert base.meta == expected_base.meta


def test_order_preset_rows_and_slope(tmp_path):
    table, _ = run_preset(
        "fisher-order",
        overrides={"tau_list": [0.025, 0.0125, 0.00625], "grid_points": 32,
                   "levels": 1},
        out_dir=str(tmp_path),
    )
    idx = {c: i for i, c in enumerate(table.schema)}
    value_rows = [r for r in table.rows if r[idx["quantity"]] == "successive_error"]
    assert len(value_rows) == 2 * 3  # two methods, three steps
    fit_rows = [r for r in table.rows if r[idx["quantity"]] == "order_fit"]
    strang_slope = next(r[idx["slope"]] for r in fit_rows if r[idx["method"]] == "strang")
    assert strang_slope == pytest.approx(2.0, abs=0.4)


#: (preset, config document, text the error must name).
BAD_CONFIGS = [
    ("kepler-order", {"tau_list": ["a"]}, "tau_list"),
    ("kepler-order", {"tau_list": 0.1}, "tau_list"),
    ("kepler-order", {"levels": "2"}, "levels"),
    ("kepler-order", {"levels": 2.0}, "levels"),
    ("kepler-order", {"t_final": "x"}, "t_final"),
    ("kepler-order", {"t_final": -1}, "t_final"),
    ("kepler-order", {"t_final": 0}, "t_final"),
    ("ho-energy", {"t_final": 0}, "t_final"),
    ("kepler-order", {"tau_list": []}, "tau_list"),
    ("kepler-energy", {"tau_list": []}, "tau_list"),
    ("fisher-order", {"tau_list": []}, "tau_list"),
    ("kepler-order", {"problem_params": {"ecc": 0.1}}, "ecc"),
    ("kepler-order", {"problem_params": {"e": 1.5}}, "problem_params.e"),
    ("ho-energy", {"problem_params": {"omega": 2.0}}, "omega"),
    ("ho-energy", {"problem_params": {"q0": 0.0}}, "q0"),
    ("fisher-order", {"problem_params": {"c1": 1.0}}, "c1"),
    ("cgl-order", {"problem_params": {"alpha": 1.0}}, "alpha"),
    ("cgl-order", {"problem_params": {"c3": "x"}}, "problem_params.c3"),
    ("coeff-audit", {"output_path": 5}, "output_path"),
    ("ho-table1", {"problem": "kepler"}, "problem"),
    ("ho-energy", {"problem": "kepler"}, "problem"),
    ("kepler-energy", {"problem": "harmonic"}, "problem"),
    ("fisher-order", {"grid_points": 2**70}, "grid_points"),
    ("ho-energy", {"problem_params": {"q0": 1e-200}}, "q0"),
    ("ho-energy", {"problem_params": {"p0": 1e200}}, "p0"),
    ("ho-table1", {"tau_list": [0.1]}, "tau_list"),
    ("coeff-audit", {"levels": 2}, "levels"),
    ("kepler-order", {"grid_points": 16}, "grid_points"),
    ("fisher-order", {"grid_points": None}, "grid_points"),
    ("ho-energy", {"tau_list": [1.0], "t_final": 1e300}, "t_final"),
    ("kepler-energy", {"tau_list": [1.0], "t_final": 1e300}, "t_final"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("preset, document, field", BAD_CONFIGS)
def test_cli_rejects_bad_config_values(tmp_path, capsys, command, preset,
                                       document, field):
    config_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    if command == "run":
        config_path.write_text(json.dumps(document))
        argv = ["run", preset, "--config", str(config_path), "--out", str(out)]
    else:
        config_path.write_text(json.dumps({"preset": preset, **document}))
        argv = ["validate", str(config_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


#: (config text that is not a JSON object, text the error must name).
NOT_AN_OBJECT = [
    ("{", "not valid JSON"),
    ("[1]", "JSON object"),
    ('"x"', "JSON object"),
    ("3", "JSON object"),
]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("text, message", NOT_AN_OBJECT)
def test_cli_rejects_config_that_is_not_a_json_object(tmp_path, capsys, command,
                                                      text, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(text)
    out = tmp_path / "out"
    argv = (["run", "kepler-order", "--config", str(config_path), "--out", str(out)]
            if command == "run" else ["validate", str(config_path)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


#: Per preset: a small run, and a changed value for each field it reads.
SMALL_RUNS = {
    "ho-table1": ({}, {"base_method": "s4sim", "levels": 2}),
    "ho-energy": ({"tau_list": [0.2, 0.1], "t_final": 10.0, "levels": 1},
                  {"base_method": "s4sim", "levels": 2, "tau_list": [0.2],
                   "t_final": 20.0, "problem_params": {"q0": 1.0}}),
    "kepler-order": ({"tau_list": [0.1, 0.05], "t_final": 0.5, "levels": 1},
                     {"base_method": "s4sim", "levels": 2, "tau_list": [0.1],
                      "t_final": 1.0, "problem_params": {"e": 0.3}}),
    "kepler-energy": ({"tau_list": [0.1], "t_final": 1.0, "levels": 1},
                      {"base_method": "s4sim", "levels": 2, "tau_list": [0.05],
                       "t_final": 2.0, "problem_params": {"e": 0.3}}),
    "fisher-order": ({"tau_list": [0.1, 0.05], "t_final": 0.2, "grid_points": 16,
                      "levels": 1},
                     {"base_method": "s4sim", "levels": 2, "tau_list": [0.1],
                      "t_final": 0.4, "grid_points": 32}),
    "cgl-order": ({"tau_list": [0.1, 0.05], "t_final": 0.1, "grid_points": 16,
                   "levels": 1},
                  {"base_method": "s4sim", "levels": 2, "tau_list": [0.1],
                   "t_final": 0.2, "grid_points": 32, "problem_params": {"c1": 0.5}}),
    "coeff-audit": ({}, {}),
}


def _run_csv(tmp_path, preset, document):
    """``(exit code, CSV bytes or None)`` of one CLI run in a fresh directory."""
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    config_path = run_dir / "cfg.json"
    config_path.write_text(json.dumps(document))
    code = main(["run", preset, "--config", str(config_path),
                 "--out", str(run_dir / "out")])
    csv_path = run_dir / "out" / f"{preset}.csv"
    return code, csv_path.read_bytes() if csv_path.exists() else None


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_accepts_only_the_fields_it_reads(tmp_path, capsys, preset):
    small, changes = SMALL_RUNS[preset]
    assert set(changes) == set(PRESET_TABLE[preset].reads)
    code, reference = _run_csv(tmp_path, preset, small)
    assert code == 0
    for key, value in changes.items():
        code, written = _run_csv(tmp_path, preset, {**small, key: value})
        assert code == 0 and written != reference, key
    own = PRESETS[preset]
    others = {"problem": "harmonic" if own.problem == "kepler" else "kepler",
              "base_method": "s4sim", "levels": 2 if own.levels != 2 else 1,
              "tau_list": [0.1, 0.05], "t_final": 0.8, "grid_points": 16,
              "problem_params": {"q0": 1.0}}
    capsys.readouterr()
    for key in (f.name for f in fields(ExperimentConfig)):
        if key in PRESET_TABLE[preset].reads:
            continue
        code, written = _run_csv(tmp_path, preset, {**small, key: others[key]})
        err = capsys.readouterr().err
        assert code == 2 and written is None, key
        assert re.search(rf"\b{key}\b", err) and "Traceback" not in err, err
    # A field the preset does not read may still be set to its own value.
    assert _run_csv(tmp_path, preset, {**small, "problem": own.problem})[0] == 0


def test_kepler_energy_runs_every_tau(tmp_path):
    table, _ = run_preset("kepler-energy", out_dir=str(tmp_path), overrides={
        "tau_list": [0.1, 0.05], "t_final": 1.0, "levels": 1})
    idx = {c: i for i, c in enumerate(table.schema)}
    rows = {}
    for r in table.rows:
        rows.setdefault((r[idx["method"]], r[idx["tau"]]), []).append(r[idx["time"]])
    assert sorted(rows) == [("level1", 0.05), ("level1", 0.1),
                            ("strang", 0.05), ("strang", 0.1)]
    for (_, tau), times in rows.items():
        assert times == pytest.approx([tau * i for i in range(round(1.0 / tau) + 1)])


#: Quantities of the rows that record a measured (method, tau) cell.
CELL_QUANTITIES = ("successive_error", "energy_error", "energy_plateau")

#: (preset, config document) whose every measured cell overflows.
NON_FINITE_CONFIGS = [
    ("cgl-order", {"problem_params": {"eps": 1e300}, "tau_list": [0.1, 0.05],
                   "t_final": 0.1, "grid_points": 16, "levels": 1}),
    ("ho-energy", {"tau_list": [1e200], "t_final": 1e200}),
]
#: Step recorded per failed cell: the first step whose state is not
#: finite, found by integrate (ho-energy) and by propagate (cgl-order).
NON_FINITE_STEPS = {"cgl-order": 0, "ho-energy": 0}


@pytest.mark.parametrize("preset, document", NON_FINITE_CONFIGS)
def test_cli_run_marks_non_finite_cells_failed(tmp_path, capsys, preset, document):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(document))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", preset, "--config", str(config_path), "--out", str(out)]) == 3
    # The cell status records the overflow; numpy must not warn about it too.
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with open(out / f"{preset}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert not [r for r in rows if r["status"] == "ok" and "nan" in r.values()]
    cells = [r for r in rows if r["quantity"] in CELL_QUANTITIES]
    assert cells and all(r["status"].startswith("non_finite: ") for r in cells)
    failures = json.loads((out / f"{preset}.json").read_text())["failures"]
    failed = {(r["method"], float(r["tau"])) for r in cells}
    assert sorted((f["method"], f["tau"]) for f in failures) == sorted(failed)
    assert {f["step"] for f in failures} == {NON_FINITE_STEPS[preset]}
    assert f"{len(failed)} cell(s) failed" in capsys.readouterr().err


def test_singular_cell_records_its_step(tmp_path, monkeypatch):
    def drift(x, tau):
        y = x + tau
        if y[1].real > 0.22:
            raise SingularityError("past the cut")
        return y

    monkeypatch.setattr(bench_run, "kepler_strang_flow",
                        lambda: FlowMap(drift, STRANG_META))
    table, _ = run_preset("kepler-order", out_dir=str(tmp_path), overrides={
        "tau_list": [0.1, 0.05], "t_final": 0.5, "levels": 1})
    # q2 starts at 0 and grows by tau per step (by gamma*tau within a
    # level-1 step), so it passes 0.22 in step 2 at tau 0.1 and 4 at 0.05.
    steps = [(f["method"], f["tau"], f["step"]) for f in table.metadata["failures"]]
    assert steps == [("strang", 0.1, 2), ("strang", 0.05, 4),
                     ("level1", 0.1, 2), ("level1", 0.05, 4)]
    idx = {c: i for i, c in enumerate(table.schema)}
    statuses = {r[idx["status"]] for r in table.rows if r[idx["quantity"]] == "energy_error"}
    assert statuses == {"singular: past the cut"}
    assert table.metadata["all_rows_failed"]


#: (preset, config document, status of each method's fit rows).
FIT_STATUS_CONFIGS = [
    # A secular-order fit needs three step sizes.
    ("ho-energy", {"tau_list": [0.2, 0.1], "t_final": 10.0},
     {"level1": "insufficient_samples"}),
    # One step size cannot give a fit at any floor.
    ("kepler-order", {"tau_list": [0.1], "t_final": 0.5, "levels": 1},
     {"strang": "insufficient_samples", "level1": "insufficient_samples"}),
    ("fisher-order", {"tau_list": [0.1], "t_final": 0.2, "grid_points": 16,
                      "levels": 1},
     {"strang": "insufficient_samples", "level1": "insufficient_samples"}),
    # Both level-1 cells lie under the 1e-13 floor; the Strang ones do not.
    ("fisher-order", {"tau_list": [1e-4, 5e-5], "t_final": 2e-4,
                      "grid_points": 16, "levels": 1},
     {"strang": "ok", "level1": "below_floor"}),
]


@pytest.mark.parametrize("preset, overrides, expected", FIT_STATUS_CONFIGS)
def test_fit_rows_say_why_they_have_no_fit(tmp_path, preset, overrides, expected):
    table, _ = run_preset(preset, overrides=overrides, out_dir=str(tmp_path))
    idx = {c: i for i, c in enumerate(table.schema)}
    statuses = {}
    for r in table.rows:
        if r[idx["tau"]] is None:
            statuses.setdefault(r[idx["method"]], set()).add(r[idx["status"]])
    assert statuses == {method: {status} for method, status in expected.items()}


def test_ho_table1_builds_each_matrix_once(tmp_path, monkeypatch):
    calls = []
    strang = ho_strang_flow()

    def counted(x, tau):
        calls.append(tau)
        return strang(x, tau)

    monkeypatch.setattr(bench_run, "ho_strang_flow",
                        lambda: FlowMap(counted, STRANG_META))
    run_preset("ho-table1", out_dir=str(tmp_path), overrides={"levels": 1})
    # One M per node, M(-tau) read at the opposite node: 2 columns x 4 base
    # evaluations per level-1 step at a complex step (both mirror branches
    # of the pair), so 8 calls at each of the 32 nodes.
    assert len(calls) == 32 * 2 * 4
    assert all(tau.imag != 0.0 for tau in calls)


def _successive_errors(table):
    idx = {c: i for i, c in enumerate(table.schema)}
    return {(r[idx["method"]], r[idx["tau"]]): r[idx["value"]] for r in table.rows
            if r[idx["quantity"]] == "successive_error"}


def test_order_run_reuses_each_tau_half_run(tmp_path, monkeypatch):
    calls = []
    strang = fisher_strang_flow(SpectralGrid(0.0, 1.0, 16))

    def counted(x, tau):
        calls.append(tau)
        return strang(x, tau)

    monkeypatch.setattr(bench_run, "fisher_strang_flow",
                        lambda grid: FlowMap(counted, STRANG_META))
    run_preset("fisher-order", out_dir=str(tmp_path), overrides={
        "tau_list": [0.1, 0.05, 0.025], "t_final": 0.2, "grid_points": 16,
        "levels": 1})
    # n = 2, 4, 8 steps: each tau/2 run is the next cell's tau run, so a
    # method takes n0 + 2 * sum(n) = 30 steps, not 3 * sum(n) = 42.  A
    # Strang step is one base evaluation and a level-1 step two.
    assert len(calls) == (1 + 2) * 30


def test_order_run_off_a_halving_list_matches_independent_cells(tmp_path):
    # 0.06 is not 0.1 / 2, so that cell computes its own tau run; 0.03 is
    # 0.06 / 2 and reuses one.  Both must equal a fresh computation.
    taus, t_final = [0.1, 0.06, 0.03], 0.3
    table, _ = run_preset("fisher-order", out_dir=str(tmp_path), overrides={
        "tau_list": taus, "t_final": t_final, "grid_points": 16, "levels": 1})
    grid = SpectralGrid(0.0, 1.0, 16)
    x0 = np.asarray(np.sin(2.0 * np.pi * grid.nodes), dtype=complex)
    base = fisher_strang_flow(grid)
    methods = {"strang": base, "level1": recursive_family(base, 1).levels[0]}
    expected = {(name, tau): successive_error(method, x0, tau, t_final)[0]
                for name, method in methods.items() for tau in taus}
    assert _successive_errors(table) == expected


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBER = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400)])
_FIELDS = {
    "preset": st.sampled_from(sorted(PRESETS)),
    "problem": st.sampled_from(PROBLEMS),
    "base_method": st.sampled_from(BASE_METHODS),
    "levels": st.integers(-1, 6),
    "tau_list": st.lists(_NUMBER | st.sampled_from([0.1, 0.05, 0.025]), max_size=4),
    "t_final": _NUMBER | st.sampled_from([0.0, 0.1, 1.0]),
    "grid_points": st.integers(-4, 2048),
    "problem_params": st.dictionaries(
        st.sampled_from(["q0", "p0", "e", "c1", "c3", "eps", "k"]), _NUMBER | _JSON,
        max_size=3),
    "output_path": st.text(max_size=4),
}
_DOCUMENTS = st.fixed_dictionaries(
    {}, optional={key: values | _JSON for key, values in _FIELDS.items()})


@settings(max_examples=300, deadline=None)
@given(document=_DOCUMENTS, preset=st.sampled_from([None, *sorted(PRESETS)]))
def test_parse_config_raises_only_validation_errors(document, preset):
    try:
        config = parse_config(json.dumps(document), preset=preset)
    except ValidationError:
        return
    assert isinstance(config, ExperimentConfig)


#: Documents for ``run``; every field may be invalid.
_RUN_DOCUMENTS = st.fixed_dictionaries(
    {}, optional={"grid_points": st.sampled_from([None, 3, 16, 32, 2**70]),
                  **{key: _FIELDS[key]
                     for key in ("base_method", "levels", "problem_params")}},
)
#: Sent only to a preset that reads them, to keep every run to a few steps;
#: a preset that reads neither (coeff-audit, ho-table1) can then run.
_FEW_STEPS = {"tau_list": [0.1, 0.05], "t_final": 0.1}


@settings(max_examples=150, deadline=None)
@given(document=_RUN_DOCUMENTS, preset=st.sampled_from(sorted(PRESETS)))
def test_cli_run_exits_cleanly(document, preset):
    document = {**{key: value for key, value in _FEW_STEPS.items()
                   if key in PRESET_TABLE[preset].reads}, **document}
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "cfg.json"
        config_path.write_text(json.dumps(document))
        code = main(["run", preset, "--config", str(config_path),
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
