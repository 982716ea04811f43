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
from pscomp.bench.run import BASES, MAX_STEPS, PRESET_TABLE, PROBLEMS
from pscomp.composition import recursive_family
from pscomp.diagnostics import propagate, step_count
from pscomp.errors import SingularityError, ValidationError
from pscomp.flowmap import STRANG_META, FlowMap
from pscomp.problems import (
    CGLParams, cgl_linear_map, cgl_nonlinear_map, cgl_strang_flow,
    fisher_diffusion_map, fisher_reaction_map, fisher_strang_flow,
    ho_drift_flow, ho_kick_flow, ho_strang_flow, kepler_drift_flow,
    kepler_initial_conditions, kepler_kick_flow, kepler_strang_flow,
    pulse_pair_profile, s4sim,
)
from pscomp.problems.cgl import CGL_STRANG_META
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


def test_config_rejects_problem_params_that_are_not_an_object():
    # apply_overrides checks first; only a direct construction reaches this.
    with pytest.raises(ValidationError, match=r"problem_params must be an object, got \[\]"):
        ExperimentConfig(problem="kepler", problem_params=[])


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


def test_shared_cells_fill_every_row_that_gives_none_of_its_own():
    table = ResultTable(schema=["a", "b", "c"], shared={"a": 1, "b": 2})
    table.add_row(c=3)
    table.add_row(b=5)
    assert table.rows == [(1, 2, 3), (1, 5, None)]
    # A shared cell outside the schema is caught when a row is added.
    table = ResultTable(schema=["a"], shared={"z": 0})
    with pytest.raises(KeyError, match="z"):
        table.add_row(a=1)
    assert table.rows == []


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


def test_run_preset_rejects_overrides_with_config(tmp_path):
    with pytest.raises(ValidationError, match="overrides or config"):
        run_preset("coeff-audit", overrides={"levels": 2},
                   config=preset_config("coeff-audit"), out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


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
    "kepler-order": ({"tau_list": [0.1, 0.05, 0.025], "t_final": 0.5, "levels": 1},
                     ("slope",)),
    "fisher-order": ({"tau_list": [0.1, 0.05, 0.025], "t_final": 0.2,
                      "grid_points": 16, "levels": 1}, ("slope",)),
    "cgl-order": ({"tau_list": [0.1, 0.05, 0.025], "t_final": 0.1,
                   "grid_points": 16, "levels": 1}, ("slope",)),
}
#: Columns a fit row may fill.
FIT_COLUMNS = ("slope", "coefficient", "residual")


@pytest.mark.parametrize("preset", sorted(ROW_SEMANTICS_RUNS))
def test_sidecar_row_semantics_names_every_quantity(tmp_path, preset):
    overrides, columns = ROW_SEMANTICS_RUNS[preset]
    run_preset(preset, overrides=overrides, out_dir=str(tmp_path))
    sentence = json.loads((tmp_path / f"{preset}.json").read_text())["row_semantics"]
    with open(tmp_path / f"{preset}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for word in ({row["quantity"] for row in rows} | set(columns)):
        assert re.search(rf"\b{word}\b", sentence), word
    # Nor may it promise a fit column that every row leaves empty.
    for column in FIT_COLUMNS:
        if not any(row[column] for row in rows):
            assert not re.search(rf"\b{column}\b", sentence), column


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
    "harmonic": (None, (2.5 + 0j, 0j)),
    "kepler": (None, tuple(kepler_initial_conditions(0.6).as_vector().tolist())),
    "fisher": (FISHER_GRID, np.sin(2.0 * np.pi * FISHER_GRID.nodes).astype(complex)),
    "cgl": (CGL_GRID, np.array([pulse_pair_profile(CGL_GRID), np.zeros(16)], dtype=complex)),
}


@pytest.mark.parametrize("base_method", list(BASES))
@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_problem_setup_matches_the_explicit_constructors(problem, base_method):
    config = ExperimentConfig(problem=problem, base_method=base_method, grid_points=16)
    base, grid, x0 = bench_run._problem_setup(config)
    expected_grid, expected_x0 = EXPLICIT_STARTS[problem]
    expected_base = EXPLICIT_BASES[problem, base_method]()
    assert grid == expected_grid
    # An ODE state is a tuple of Python complex, a PDE state a complex array.
    assert type(x0) is type(expected_x0)
    assert np.asarray(x0).tobytes() == np.asarray(expected_x0).tobytes()
    tau = 0.05 + 0.02j
    assert np.asarray(base(x0, tau)).tobytes() == np.asarray(expected_base(x0, tau)).tobytes()
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
    ("kepler-order", {"base_method": "rk4"}, "base_method"),
    # Choices are looked up in the problem and base rows: no hashing of a list.
    ("kepler-order", {"base_method": []}, "base_method"),
    ("kepler-order", {"problem": []}, "problem"),
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
    # Nested deeper than the parser's recursion limit.
    pytest.param('{"preset": "kepler-order", "tau_list": ' + "[" * 10**5 + "]" * 10**5 + "}",
                 "not valid JSON", id="tau_list-nested-100000-deep"),
    # An integer literal longer than Python's int-conversion limit (4300 digits).
    pytest.param('{"preset": "kepler-order", "t_final": ' + "1" * 5000 + "}",
                 "not valid JSON", id="t_final-of-5000-digits"),
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


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("field, head, tail", [
    ("tau_list", '"tau_list": ', ""),
    ("problem_params.e", '"problem_params": {"e": ', "}"),
])
def test_cli_rejects_values_nested_up_to_the_parser_limit(tmp_path, capsys, command, field,
                                                          head, tail):
    # A value nested just under the JSON parser's recursion limit parses, so
    # its message must print it without recursing as deep again.  The depth
    # that parses moves with the caller's stack, so a band of depths is swept.
    config_path = tmp_path / "cfg.json"
    preset = '"preset": "kepler-order", ' if command == "validate" else ""
    argv = (["run", "kepler-order", "--config", str(config_path), "--out", str(tmp_path / "out")]
            if command == "run" else ["validate", str(config_path)])
    for depth in range(900, 1001):
        config_path.write_text("{" + preset + head + "[" * depth + "]" * depth + tail + "}")
        assert main(argv) == 2, depth
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err or "not valid JSON" in err, depth
        assert len(err) < 300, depth
    assert not list(tmp_path.rglob("*.csv"))


def _depth(value):
    """Nesting depth of the non-empty containers in ``value``."""
    if isinstance(value, (dict, list, tuple)) and value:
        return 1 + max(map(_depth, value.values() if isinstance(value, dict) else value))
    return 0


_MESSAGE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(value=_MESSAGE_VALUES)
def test_a_message_prints_a_value_as_repr_does_up_to_ten_levels(value):
    # Nothing is cut or reordered (a dict keeps its key order); only a
    # container nested deeper than ten levels prints as [...].
    shown = bench_run._shown(value)
    assert (shown == repr(value)) is (_depth(value) <= 10)


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
    # A problem default set explicitly is that default (Fisher has none).
    defaults = PROBLEMS[own.problem].params
    if defaults:
        key = next(iter(defaults))
        document = {**small, "problem_params": {key: defaults[key]}}
        assert _run_csv(tmp_path, preset, document) == (0, reference)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_row_names_the_run_problem_preset_and_base(tmp_path, preset):
    config = apply_overrides(PRESETS[preset], SMALL_RUNS[preset][0])
    run_preset(preset, config=config, out_dir=str(tmp_path))
    with open(tmp_path / f"{preset}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    base = config.base_method
    for row in rows:
        if preset == "coeff-audit":
            # A family's rows follow its "<base>x<levels>" argument row.
            if row["quantity"] == "max_coefficient_argument":
                base = row["method"].rsplit("x", 1)[0]
            assert base in BASES
        assert (row["problem"], row["preset"], row["base"]) == (config.problem, preset, base)


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
        y = tuple(v + tau for v in x)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_value_without_an_error_fails_its_cell(bad):
    # A compute that returns a nan or inf raises nothing itself; the cell
    # still fails, with no step to name.
    table = ResultTable(schema=["status"], metadata={"failures": []})
    values, status = bench_run._measure(
        table, "level1", 0.1, lambda: (1.0, np.array([0.5, bad])))
    assert values is None
    assert status == "non_finite: result has nan or inf"
    assert table.metadata["failures"] == [
        {"method": "level1", "tau": 0.1, "error": "result has nan or inf", "step": None}]
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


@pytest.mark.parametrize("preset", ["fisher-order", "cgl-order"])
def test_order_run_writes_each_method_final_field(tmp_path, preset):
    taus, t_final = [0.1, 0.05], 0.2
    _, paths = run_preset(preset, out_dir=str(tmp_path), overrides={
        "tau_list": taus, "t_final": t_final, "grid_points": 16, "levels": 1})
    config = PRESETS[preset]
    base, grid, x0 = bench_run._problem_setup(
        apply_overrides(config, {"grid_points": 16, "levels": 1}))
    methods = {"strang": base, "level1": recursive_family(base, 1).levels[0]}
    assert sorted(p for p in paths if p.endswith("_field.txt")) == sorted(
        str(tmp_path / f"{preset}_{name}_field.txt") for name in methods)
    for name, method in methods.items():
        # The snapshot is the tau/2 run of the last cell: for CGL, v + i w.
        _, fine = _successive_error(method, x0, taus[-1], t_final)
        expected = fine[0] + 1j * fine[1] if preset == "cgl-order" else fine
        written = np.loadtxt(tmp_path / f"{preset}_{name}_field.txt")
        np.testing.assert_array_equal(written[:, 0], grid.nodes)
        # Seventeen significant digits read back every bit.
        np.testing.assert_array_equal(written[:, 1] + 1j * written[:, 2], expected)


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


def _successive_error(method, x0, tau, t_final):
    """``(distance, final state of the tau/2 run)`` from fresh tau and tau/2
    runs, computed apart from the order runner."""
    n = step_count(t_final, tau)
    coarse = propagate(method, x0, tau, n)
    fine = propagate(method, x0, tau / 2.0, 2 * n)
    return float(np.max(np.abs(coarse - fine))), fine


def _successive_errors(table):
    idx = {c: i for i, c in enumerate(table.schema)}
    return {(r[idx["method"]], r[idx["tau"]]): r[idx["value"]] for r in table.rows
            if r[idx["quantity"]] == "successive_error"}


def _fisher_order_base_calls(tmp_path, monkeypatch, taus, t_final):
    """Base evaluations of a level-1 ``fisher-order`` run at 16 points."""
    calls = []
    strang = fisher_strang_flow(SpectralGrid(0.0, 1.0, 16))

    def counted(x, tau):
        calls.append(tau)
        return strang(x, tau)

    monkeypatch.setattr(bench_run, "fisher_strang_flow",
                        lambda grid: FlowMap(counted, STRANG_META))
    run_preset("fisher-order", out_dir=str(tmp_path), overrides={
        "tau_list": taus, "t_final": t_final, "grid_points": 16, "levels": 1})
    return len(calls)


def test_order_run_reuses_each_tau_half_run(tmp_path, monkeypatch):
    # n = 2, 4, 8 steps: each tau/2 run is the next cell's tau run, so a
    # method takes n0 + 2 * sum(n) = 30 steps, not 3 * sum(n) = 42.  A
    # Strang step is one base evaluation and a level-1 step two.
    assert _fisher_order_base_calls(
        tmp_path, monkeypatch, [0.1, 0.05, 0.025], 0.2) == (1 + 2) * 30


def test_order_run_runs_each_distinct_step_once(tmp_path, monkeypatch):
    # The cells need steps 0.1, 0.05, 0.06, 0.03, 0.05, 0.025, 0.03, 0.015;
    # the six distinct ones take 3 + 6 + 5 + 10 + 12 + 20 = 56 steps per
    # method, not the 72 of a tau and a tau/2 run per cell.
    assert _fisher_order_base_calls(
        tmp_path, monkeypatch, [0.1, 0.06, 0.05, 0.03], 0.3) == (1 + 2) * 56


def test_order_run_off_a_halving_list_matches_independent_cells(tmp_path):
    # 0.06 is not 0.1 / 2, so that cell runs its own tau; the 0.03 cell reads
    # the 0.06 cell's tau/2 run.  Both must equal a fresh computation.
    taus, t_final = [0.1, 0.06, 0.03], 0.3
    table, _ = run_preset("fisher-order", out_dir=str(tmp_path), overrides={
        "tau_list": taus, "t_final": t_final, "grid_points": 16, "levels": 1})
    grid = SpectralGrid(0.0, 1.0, 16)
    x0 = np.asarray(np.sin(2.0 * np.pi * grid.nodes), dtype=complex)
    base = fisher_strang_flow(grid)
    methods = {"strang": base, "level1": recursive_family(base, 1).levels[0]}
    expected = {(name, tau): _successive_error(method, x0, tau, t_final)[0]
                for name, method in methods.items() for tau in taus}
    assert _successive_errors(table) == expected


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("taus, t_final", [([0.05, 0.025, 0.0125], 0.1),
                                           ([0.1, 0.06, 0.05, 0.03], 0.3)])
def test_stacked_cgl_order_run_equals_independent_runs(tmp_path, levels, taus, t_final):
    # Every method is batched, so its distinct steps run as one stack; each
    # error and each snapshot must keep the bits of separate propagate runs.
    table, _ = run_preset("cgl-order", out_dir=str(tmp_path), overrides={
        "tau_list": taus, "t_final": t_final, "grid_points": 32, "levels": levels})
    config = apply_overrides(PRESETS["cgl-order"], {"grid_points": 32, "levels": levels})
    base, _, x0 = bench_run._problem_setup(config)
    methods = {"strang": base, **{f"level{n}": level for n, level in enumerate(
        recursive_family(base, levels).levels, start=1)}}
    assert all(method.meta.batched for method in methods.values())
    expected, fields = {}, {}
    for name, method in methods.items():
        for tau in taus:
            expected[name, tau], fine = _successive_error(method, x0, tau, t_final)
        fields[name] = fine[0] + 1j * fine[1]
    assert _successive_errors(table) == expected
    for name, field in fields.items():
        written = np.loadtxt(tmp_path / f"cgl-order_{name}_field.txt")
        assert (written[:, 1] + 1j * written[:, 2]).tobytes() == field.tobytes()


def _poisoned_cgl(poison, bad_tau, levels, meta, widths):
    """``cgl_strang_flow`` whose rows at the base steps of the ``bad_tau``
    runs of every method go through ``poison`` once they leave x0 (so that
    at the Strang base the run fails in its second step); ``widths`` gets
    the number of rows of each call."""
    def build(params, grid):
        kernel = cgl_strang_flow(params, grid)
        x0 = np.array([pulse_pair_profile(grid), np.zeros(grid.n_points)], dtype=complex)
        scales = [1.0] + [abs(p[0]) for p in recursive_family(kernel, levels).coefficient_products]

        def poisoned(t, x):
            return (not np.array_equal(x, x0)
                    and any(math.isclose(abs(t), s * bad_tau, rel_tol=1e-9) for s in scales))

        def evaluate(x, tau):
            out = kernel(x, tau)
            if type(tau) is not tuple:
                widths.append(1)
                return poison(out) if poisoned(tau, x) else out
            widths.append(len(tau))
            rows = [poison(row) if poisoned(t, state) else row
                    for row, state, t in zip(out, x, tau)]
            return np.array(rows)

        return FlowMap(evaluate, meta)
    return build


def _singular(row):
    raise SingularityError("poisoned row")


@pytest.mark.parametrize("poison, bad_tau, error", [
    (_singular, 0.025, "poisoned row"),
    (lambda row: np.full_like(row, math.nan), 0.0125, "result has nan or inf")])
def test_a_failing_stack_falls_back_to_the_runs_of_an_unbatched_kernel(
        tmp_path, monkeypatch, poison, bad_tau, error):
    # One step's rows raise (or turn nan) inside the stack: the files, each
    # failure's step included, equal those of the same kernel declared unbatched.
    overrides = {"tau_list": [0.05, 0.025, 0.0125, 0.00625], "t_final": 0.05,
                 "grid_points": 32, "levels": 2}
    written, widths = [], {}
    for meta in (CGL_STRANG_META, STRANG_META):
        widths[meta.batched] = []
        monkeypatch.setattr(bench_run, "cgl_strang_flow",
                            _poisoned_cgl(poison, bad_tau, 2, meta, widths[meta.batched]))
        out = tmp_path / str(meta.batched)
        table, paths = run_preset("cgl-order", overrides=overrides, out_dir=str(out))
        written.append({Path(p).name: Path(p).read_bytes() for p in paths})
    assert written[0] == written[1]
    assert max(widths[True]) > 1 and max(widths[False]) == 1
    failures = table.metadata["failures"]
    assert {f["method"] for f in failures} == {"strang", "level1", "level2"}
    assert {f["error"] for f in failures} == {error}
    assert [f["step"] for f in failures if f["method"] == "strang"] == [1, 1]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_NUMBER = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400)])
_FIELDS = {
    "preset": st.sampled_from(sorted(PRESETS)),
    "problem": st.sampled_from(tuple(PROBLEMS)),
    "base_method": st.sampled_from(tuple(BASES)),
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
