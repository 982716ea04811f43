"""pscomp benchmark: one workload, timed or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the command times ``pscomp.bench.run_preset`` on the
workload's inputs and reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced calls and reports the per-layer metrics
and the tracing overhead.  Every call's CSV output goes through the
workload's correctness gate.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every cell and check passed.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads, so pin them
# before anything imports numpy; child processes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gates  # noqa: E402
from reference import REFERENCE_S, Normaliser  # noqa: E402
from workloads import WORKLOADS, required_steps, workload_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 15
#: Timed calls made even when ``--seconds`` runs out first.
MIN_CALLS = 5
#: Traced and untraced calls made even when ``--seconds`` runs out first.
MIN_TRACED_CALLS = 3
#: Traced calls after which a traced run stops early; this bounds the
#: spans held in memory and written out.
MAX_TRACED_CALLS = 10

END_TO_END = (
    ("wall_s", "s"), ("steps_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _load():
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


class Run:
    """Calls of one workload and the verdicts of their gates."""

    def __init__(self, run_preset, workload, inputs, out_dir):
        self._run_preset = run_preset
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self._last_verdicts = None

    def call(self, tracer=None):
        """One ``run_preset`` call: ``(wall_s, paths)``; outputs are then checked.

        With a ``tracer``, the call is recorded as the root span.
        """
        run_preset = self._run_preset
        if tracer is not None:
            run_preset = tracer.wrap("bench.run_preset", run_preset)
        t0 = time.perf_counter()
        _, paths = run_preset(self.workload.preset, overrides=self.inputs,
                              out_dir=self.out_dir)
        wall = time.perf_counter() - t0
        self.check(paths)
        return wall, paths

    def check(self, paths):
        rows = gates.read_rows(paths[0])
        cells, singular = gates.cell_counts(rows)
        checks = gates.GATES[self.workload.name](rows, self.inputs)
        bad = [c for c in checks if not c[1]]
        self.attempted += cells + len(checks)
        self.failed += singular + len(bad)
        # Print the first report, and any later one whose verdicts differ.
        verdicts = (singular, [ok for _, ok, _ in checks])
        if verdicts != self._last_verdicts:
            print(f"cells: {cells} computed, {singular} singular")
            for label, ok, detail in checks:
                print(f"check {'ok  ' if ok else 'FAIL'} {label}: {detail}")
            self._last_verdicts = verdicts


def _until(seconds, minimum, body, maximum=None):
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or (time.perf_counter() < deadline and done != maximum):
        body()
        done += 1


def measure_setup(workload, inputs):
    """Median normalised set-up time of fresh processes.

    Each probe is scaled by the reference kernel timed inside the probe
    itself, since the probe may run on another CPU than this process.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        spawn = time.monotonic_ns()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name,
             json.dumps(inputs), str(spawn)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr}")
        ready_s, reference_s = map(float, probe.stdout.split()[-2:])
        raw.append(ready_s)
        scaled.append(ready_s * REFERENCE_S / reference_s)
    print(f"setup_s samples: {len(raw)} fresh processes; raw median "
          f"{statistics.median(raw):.6f} s")
    return statistics.median(scaled)


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def timed(run, seconds, required_steps):
    run.call()  # warm-up, discarded
    normaliser = Normaliser()
    raw, walls = [], []

    def sample():
        raw.append(run.call()[0])
        walls.append(normaliser.scale(raw[-1]))

    _until(seconds, MIN_CALLS, sample)
    wall = statistics.median(walls)
    tail = _tail(walls)
    print(f"wall_s samples: {len(walls)}; "
          + (f"p{tail[0]} = {tail[1]:.6f} s" if tail else
             "no tail percentile (fewer than 10 samples beyond p75)")
          + f"; raw median {statistics.median(raw):.6f} s; speed factor "
          f"median {statistics.median(normaliser.factors):.4f} "
          f"(reference kernel nominal {REFERENCE_S * 1e3:g} ms)")
    return {
        "wall_s": wall,
        "steps_per_s": required_steps / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(run, seconds, name):
    import spans  # imports pscomp, so only after main() has put src/ on the path

    run.call()  # warm-up, discarded
    tracer = spans.Tracer()
    plain, timed_traced, written = [], [], []

    def pair():
        plain.append(run.call()[0])
        with spans.tracing(tracer):
            wall, paths = run.call(tracer)
        timed_traced.append(wall)
        written.append(sum(os.path.getsize(p) for p in paths))

    _until(seconds, MIN_TRACED_CALLS, pair, MAX_TRACED_CALLS)
    for missing in tracer.missing:
        print(f"tracer: {missing} is not bound; its layer reads 0")
    metrics = spans.layer_metrics(tracer, len(timed_traced))
    overhead = statistics.median(timed_traced) - statistics.median(plain)
    metrics["bench.bytes_written"] = statistics.median(written)
    metrics["tracing.overhead_s"] = overhead
    metrics["tracing.overhead_frac"] = overhead / statistics.median(plain)
    print(f"traced calls: {len(timed_traced)}; untraced wall_s "
          f"{statistics.median(plain):.6f} s, traced wall_s "
          f"{statistics.median(timed_traced):.6f} s")
    path = OUT / f"{name}.spans.csv"
    spans.write_spans(tracer, path)
    print(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    return ({name: metrics[name] for name, _, _ in spans.LAYER_METRICS},
            {name: unit for name, unit, _ in spans.LAYER_METRICS})


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "pscomp" / "__init__.py").is_file():
        print(f"error: no pscomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    from pscomp.bench import parse_config, run_preset

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload_inputs(workload, args.seed)
    config = parse_config(json.dumps(inputs), preset=workload.preset)
    steps = required_steps(workload, config)

    print(f"workload {workload.name} (preset {workload.preset}), seed {args.seed}")
    print(f"inputs: {json.dumps(inputs, sort_keys=True)}")
    print(f"protocol steps per run: {steps}")
    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, cpu {_cpu_model()!r}, "
          + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"load average before: {_load()}")

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        run = Run(run_preset, workload, inputs, out_dir)
        if args.trace:
            metrics, units = traced(run, args.seconds, workload.name)
        else:
            setup = measure_setup(workload, inputs)
            metrics = timed(run, args.seconds, steps)
            metrics["setup_s"] = setup
            metrics = {name: metrics[name] for name, _ in END_TO_END}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"load average after: {_load()}")

    failed_frac = run.failed / run.attempted
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed_frac:.6g} ratio "
          f"({run.failed} of {run.attempted} cells and checks)")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
