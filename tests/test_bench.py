"""Config parsing, emission determinism, presets, and the CLI."""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pscomp.bench.run as bench_run
from pscomp.bench import (
    PRESETS, ExperimentConfig, ResultTable, apply_overrides, emit,
    parse_config, preset_config, run_preset,
)
from pscomp.bench.cli import main
from pscomp.bench.config import BASE_METHODS, PROBLEMS
from pscomp.bench.run import CELL_QUANTITIES
from pscomp.errors import SingularityError, ValidationError
from pscomp.flowmap import STRANG_META, FlowMap


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


def test_apply_overrides_keeps_validation():
    base = preset_config("fisher-order")
    config = apply_overrides(base, {"grid_points": 64, "levels": 1})
    assert config.grid_points == 64
    with pytest.raises(ValidationError):
        apply_overrides(base, {"nonsense": True})


def test_emit_header_only(tmp_path):
    table = ResultTable(schema=["a", "b"], metadata={"x": 1})
    csv_path, json_path = emit(table, str(tmp_path / "empty"))
    assert open(csv_path).read() == "a,b\n"
    assert json.load(open(json_path)) == {"x": 1}


def test_emit_formats_cells(tmp_path):
    table = ResultTable(schema=["name", "count", "value", "flag", "missing"])
    table.add_row(name="row", count=3, value=math.nan, flag=True)
    csv_path, _ = emit(table, str(tmp_path / "cells"))
    lines = open(csv_path).read().splitlines()
    assert lines[1] == "row,3,nan,true,"


def test_emit_uses_lf_endings(tmp_path):
    table = ResultTable(schema=["a"])
    table.add_row(a=1.0)
    csv_path, _ = emit(table, str(tmp_path / "lf"))
    raw = open(csv_path, "rb").read()
    assert b"\r" not in raw


def test_emit_17_significant_digits(tmp_path):
    table = ResultTable(schema=["v"])
    table.add_row(v=1.0 / 3.0)
    csv_path, _ = emit(table, str(tmp_path / "digits"))
    cell = open(csv_path).read().splitlines()[1]
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


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "kepler-order" in out
    assert "coeff-audit" in out


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
    data = json.load(open(tmp_path / "fisher-order.json"))
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


#: (preset, config document) whose every measured cell overflows.
NON_FINITE_CONFIGS = [
    ("cgl-order", {"problem_params": {"eps": 1e300}, "tau_list": [0.1, 0.05],
                   "t_final": 0.1, "grid_points": 16, "levels": 1}),
    ("ho-energy", {"tau_list": [1e200], "t_final": 1e200}),
]


@pytest.mark.parametrize("preset, document", NON_FINITE_CONFIGS)
def test_cli_run_marks_non_finite_cells_failed(tmp_path, capsys, preset, document):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert main(["run", preset, "--config", str(config_path), "--out", str(out)]) == 3
    with open(out / f"{preset}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert not [r for r in rows if r["status"] == "ok" and "nan" in r.values()]
    cells = [r for r in rows if r["quantity"] in CELL_QUANTITIES]
    assert cells and all(r["status"].startswith("non_finite: ") for r in cells)
    failures = json.loads((out / f"{preset}.json").read_text())["failures"]
    failed = {(r["method"], float(r["tau"])) for r in cells}
    assert sorted((f["method"], f["tau"]) for f in failures) == sorted(failed)
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


#: Documents for ``run``: the fixed tau_list and t_final keep every run to a
#: few steps; every other field may be invalid.
_RUN_DOCUMENTS = st.fixed_dictionaries(
    {"tau_list": st.just([0.1, 0.05]), "t_final": st.just(0.1)},
    optional={"grid_points": st.sampled_from([None, 3, 16, 32, 2**70]),
              **{key: _FIELDS[key]
                 for key in ("base_method", "levels", "problem_params")}},
)


@settings(max_examples=150, deadline=None)
@given(document=_RUN_DOCUMENTS, preset=st.sampled_from(sorted(PRESETS)))
def test_cli_run_exits_cleanly(document, preset):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "cfg.json"
        config_path.write_text(json.dumps(document))
        code = main(["run", preset, "--config", str(config_path),
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
