"""Self-tests of the benchmark: tracer arithmetic, the counting wrapper
against the program's cost model, the gates, and BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import reference  # noqa: E402
import run as bench_command  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, required_steps, workload_inputs  # noqa: E402

import pscomp.bench.run as bench_run  # noqa: E402
import pscomp.problems.cgl as cgl  # noqa: E402
import pscomp.problems.kepler as kepler  # noqa: E402
from pscomp.bench import PRESETS, parse_config, run_preset  # noqa: E402
from pscomp.bench.emit import ResultTable  # noqa: E402
from pscomp.composition import recursive_family  # noqa: E402
from pscomp.flowmap import FlowMap  # noqa: E402
from pscomp.problems import ho_drift_flow, ho_kick_flow, s4sim  # noqa: E402


def _traced(preset, overrides, out_dir):
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        tracer.wrap("bench.run_preset", run_preset)(
            preset, overrides=overrides, out_dir=str(out_dir))
    return tracer, spans.layer_metrics(tracer, calls=1)


def test_self_time_of_synthetic_nested_spans(monkeypatch):
    # root [0, 100] holds a [10, 40] (which holds g [15, 25]) and b [50, 90].
    clock = iter([0, 10, 15, 25, 40, 50, 90, 100])
    monkeypatch.setattr(spans.time, "perf_counter_ns", lambda: next(clock))
    tracer = spans.Tracer()
    root = tracer.begin(tracer.name_id("root"))
    a = tracer.begin(tracer.name_id("a"))
    g = tracer.begin(tracer.name_id("g"))
    tracer.finish(g)
    tracer.finish(a)
    b = tracer.begin(tracer.name_id("b"))
    tracer.finish(b)
    tracer.finish(root)
    duration, self_ns = spans.span_times(tracer)
    assert list(tracer.parent) == [-1, root, a, root]
    assert list(duration) == [100, 30, 10, 40]
    assert list(self_ns) == [30, 20, 10, 40]
    totals = spans.totals_by_name(tracer)
    assert totals["root"] == (1, 100.0, 30.0)
    assert totals["a"] == (1, 30.0, 20.0)


def test_normaliser_scales_by_the_reference_around_each_sample(monkeypatch):
    times = iter([0.03, 0.01, 0.02])
    monkeypatch.setattr(reference, "reference_seconds", lambda: next(times))
    normaliser = reference.Normaliser()
    assert normaliser.scale(2.0) == pytest.approx(2.0 * reference.REFERENCE_S / 0.02)
    assert normaliser.scale(1.0) == pytest.approx(reference.REFERENCE_S / 0.015)


def test_kepler_base_evaluations_follow_the_seed_cost_model(tmp_path):
    _, metrics = _traced("kepler-order",
                         {"tau_list": [0.08, 0.04], "t_final": 0.16}, tmp_path)
    for level in (1, 2, 3):
        assert metrics[f"composition.base_evals_per_step.L{level}"] == 2 * 4 ** (level - 1)
        assert metrics[f"composition.useful_eval_ratio.L{level}"] == 2 ** level / (2 * 4 ** (level - 1))
    assert metrics["spectral.fft_calls_per_step"] == 0
    assert metrics["complexlog.calls_per_step"] > 0


def test_oscillator_s4sim_makes_22_flowmap_calls_per_step(tmp_path):
    _, metrics = _traced("ho-energy", {"base_method": "s4sim",
                                       "tau_list": [1.2, 1.0, 0.8],
                                       "t_final": 12.0}, tmp_path)
    assert metrics["flowmap.calls_per_step"] == 22
    assert metrics["problems.stage_calls_per_eval"] == 9
    assert metrics["composition.base_evals_per_step.L1"] == 2
    assert metrics["complexlog.calls_per_step"] == 0
    assert metrics["spectral.fft_calls_per_step"] == 0


def test_cgl_strang_evaluation_makes_8_fft_calls(tmp_path):
    tracer, metrics = _traced("cgl-order", {"tau_list": [0.05, 0.025],
                                            "t_final": 0.05, "grid_points": 64,
                                            "levels": 1}, tmp_path)
    assert metrics["spectral.fft_calls_per_eval"] == 8
    assert metrics["complexlog.calls_per_step"] > 0
    # Every span inside a step carries the id of the cell that records it,
    # and the tau and tau/2 runs of a cell share that id.
    step = tracer.name_id("composition.L1")
    cells = {c for n, c in zip(tracer.name, tracer.cell) if n == step}
    assert len(cells) == 2


def test_tracing_restores_every_patched_name(tmp_path):
    watched = [(bench_run, name) for name in (*spans.BASE_CONSTRUCTORS,
                                              *spans.STAGE_CONSTRUCTORS,
                                              "recursive_family", *spans.RUN_SPANS)]
    watched += [*spans.LOG_SPANS, *((m, "np") for m in spans.FFT_MODULES),
                (FlowMap, "__call__"), (ResultTable, "add_row")]
    before = [getattr(owner, name) for owner, name in watched]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.tracing(tracer):
            assert kepler.analytic_inv_r3 is not before[watched.index((kepler, "analytic_inv_r3"))]
            raise RuntimeError("interrupted traced run")
    assert [getattr(owner, name) for owner, name in watched] == before
    assert cgl.np.fft.fft is before[watched.index((cgl, "np"))].fft.fft
    assert tracer.missing == []


def test_oscillator_oracle_matches_the_program_level1_map():
    level1 = recursive_family(s4sim(ho_drift_flow(), ho_kick_flow()), 1).levels[0]
    for tau in (1.2, 0.8, 0.1):
        oracle = gates.oscillator_level1_matrix(tau)
        assert abs(level1.matrix(tau).real - oracle).max() < 1e-13


def test_order_gate_reports_values_outside_the_bounds():
    rows = [{"quantity": "order_fit", "method": m, "slope": s}
            for m, s in (("strang", "2.01"), ("level1", "4.1"),
                         ("level2", "6.5"), ("level3", ""))]
    verdicts = {label: ok for label, ok, _ in gates.kepler_gate(rows, {})}
    assert verdicts == {"strang order": True, "level1 order": True,
                        "level2 order": False, "level3 order": False}


def test_seed_zero_keeps_the_preset_parameters():
    for workload in WORKLOADS.values():
        inputs = workload_inputs(workload, 0)
        assert inputs["problem_params"] == PRESETS[workload.preset].problem_params


def test_other_seeds_draw_inside_the_bands():
    for workload in WORKLOADS.values():
        a, b = workload_inputs(workload, 7), workload_inputs(workload, 8)
        assert a == workload_inputs(workload, 7) and a != b
        for key, (low, high) in workload.bands.items():
            assert low <= a["problem_params"][key] <= high


@pytest.mark.parametrize("name, steps", [("kepler-deep", 4 * 375),
                                         ("cgl-wide", 3 * 3 * 60),
                                         ("ho-s4sim-long", 1000 + 1200 + 1500)])
def test_protocol_step_counts(name, steps):
    workload = WORKLOADS[name]
    config = parse_config(json.dumps(workload_inputs(workload, 0)),
                          preset=workload.preset)
    assert required_steps(workload, config) == steps


def test_benchmark_json_lists_what_the_command_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(bench_command.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
