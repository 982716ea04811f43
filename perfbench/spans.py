"""Span tracer for the traced benchmark run.

The tracer lives in the benchmark, not in the program.  While
:func:`tracing` is active it replaces public names that
``pscomp.bench.run`` and the problem modules bind with recording
wrappers, wraps flow maps in :class:`TracedFlowMap`, and counts
``FlowMap.__call__``; on exit it restores every name it replaced.

A span is ``(name, start_ns, end_ns, parent, cell)``.  ``parent`` is the
index of the enclosing span (-1 at the top).  ``cell`` is the index of
the table row that records the result cell -- one (method, tau) entry of
the preset -- whose steps the span belongs to, so the tau and tau/2 runs
of a successive-error cell share it; spans outside any step carry -1.
Spans sit in flat arrays in memory and are written out once at the end.
"""

import csv
import dataclasses
import time
import types
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import pscomp.bench.run as bench_run
import pscomp.problems.cgl as cgl
import pscomp.problems.fisher as fisher
import pscomp.problems.kepler as kepler
from pscomp.bench.emit import ResultTable
from pscomp.flowmap import FlowMap

#: Constructors bound in ``pscomp.bench.run`` whose result is a base method.
BASE_CONSTRUCTORS = ("kepler_strang_flow", "cgl_strang_flow", "fisher_strang_flow",
                 "ho_strang_flow", "s4sim")
#: Constructors bound in ``pscomp.bench.run`` whose result is a stage flow.
STAGE_CONSTRUCTORS = ("ho_drift_flow", "ho_kick_flow", "kepler_drift_flow",
                  "kepler_kick_flow", "fisher_diffusion_map",
                  "fisher_reaction_map", "cgl_linear_map", "cgl_nonlinear_map")
#: Span name per callable bound in ``pscomp.bench.run``.
RUN_SPANS = {
    "preset_config": "bench.config", "apply_overrides": "bench.config",
    "emit": "bench.emit", "write_snapshot": "bench.emit",
    "integrate": "diagnostics.integrate",
    "energy_error_series": "diagnostics.energy_error_series",
    "power_law_fit": "diagnostics.fit", "slope_with_floor": "diagnostics.fit",
    "envelope_growth": "diagnostics.fit",
}
#: Complex-log callables as the problem modules bind them.
LOG_SPANS = ((kepler, "analytic_inv_r3"), (cgl, "principal_log"))
#: Problem modules whose ``np.fft`` calls are the PDE kernels' FFTs.
FFT_MODULES = (cgl, fisher)

LEVELS = (1, 2, 3)

#: Per-layer metrics: (name, unit, better).  The levels a workload does
#: not run read 0.
LAYER_METRICS = (
    *((f"composition.base_evals_per_step.L{n}", "count", "lower") for n in LEVELS),
    *((f"composition.useful_eval_ratio.L{n}", "ratio", "higher") for n in LEVELS),
    *((f"composition.step_us.L{n}", "us", "lower") for n in LEVELS),
    *((f"composition.self_us_per_step.L{n}", "us", "lower") for n in LEVELS),
    ("composition.build_s", "s", "lower"),
    ("flowmap.calls_per_step", "count", "lower"),
    ("complexlog.calls_per_step", "count", "lower"),
    ("complexlog.us_per_call", "us", "lower"),
    ("complexlog.share", "ratio", "lower"),
    ("spectral.fft_calls_per_step", "count", "lower"),
    ("spectral.fft_calls_per_eval", "count", "lower"),
    ("spectral.fft_us_per_call", "us", "lower"),
    ("spectral.fft_share", "ratio", "lower"),
    ("problems.base_us_per_eval", "us", "lower"),
    ("problems.base_self_us_per_eval", "us", "lower"),
    ("problems.stage_calls_per_eval", "count", "lower"),
    ("diagnostics.self_s", "s", "lower"),
    ("diagnostics.fit_s", "s", "lower"),
    ("bench.emit_s", "s", "lower"),
    ("bench.bytes_written", "count", "lower"),
    ("bench.config_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
    ("tracing.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory spans and counters of the traced calls."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.cell = array("q")
        self._open = []
        self.cell_id = -1
        self.rows = 0
        self.active_level = None
        self.counts = Counter()
        self.products = {}
        self.missing = []
        self._base_step = self.step_hook(0)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.cell.append(self.cell_id)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        traced.__wrapped__ = fn
        return traced

    def step_hook(self, level):
        """Hook for the level-``level`` map: one call is one step."""
        nid = self.name_id(f"composition.L{level}")

        def step(inner, state, tau):
            self.counts[f"steps.L{level}"] += 1
            self.cell_id = self.rows
            self.active_level = level
            idx = self.begin(nid)
            try:
                return inner(state, tau)
            finally:
                self.finish(idx)
                self.active_level = None
                self.cell_id = -1

        return step

    def base_hook(self, inner, state, tau):
        """Hook for the base method: one call is one base evaluation."""
        if self.active_level is None:
            # Called from the runner itself: a step of the base method.
            return self._base_step(
                lambda x, t: self.base_hook(inner, x, t), state, tau)
        self.counts[f"base_evals.L{self.active_level}"] += 1
        idx = self.begin(self.name_id("problems.base"))
        try:
            return inner(state, tau)
        finally:
            self.finish(idx)

    def stage_hook(self, inner, state, tau):
        self.counts["problems.stage_calls"] += 1
        return inner(state, tau)


class TracedFlowMap(FlowMap):
    """Counting wrapper: forwards each call to ``inner`` through ``hook``.

    It copies the wrapped map's attributes (meta, name and structural
    markers), so combinators treat it like the original.  Its own calls
    bypass ``FlowMap.__call__``; only the wrapped map's call is counted
    there, so wrapping adds no flow-map calls to the count.
    """

    def __init__(self, inner, hook):
        self.__dict__.update(inner.__dict__)
        self.inner = inner
        self.hook = hook

    def __call__(self, state, tau):
        return self.hook(self.inner, state, tau)


def _numpy_with_traced_fft(tracer):
    """A copy of the numpy namespace whose ``fft.fft``/``fft.ifft`` record spans."""
    fft = types.ModuleType("numpy.fft")
    fft.__dict__.update(np.fft.__dict__)
    fft.fft = tracer.wrap("spectral.fft", np.fft.fft)
    fft.ifft = tracer.wrap("spectral.fft", np.fft.ifft)
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.fft = fft
    return proxy


@contextmanager
def tracing(tracer):
    """Patch the program's public names to report to ``tracer``; restore on exit."""
    saved = []

    def patch(owner, name, make):
        original = getattr(owner, name, None)
        if original is None:
            tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def constructor(hook):
        def make(build):
            def traced_build(*args, **kwargs):
                return TracedFlowMap(build(*args, **kwargs), hook)
            return traced_build
        return make

    def family(build):
        span = tracer.wrap("composition.build", build)

        def traced_family(base, levels):
            fam = span(base, levels)
            for n, products in enumerate(fam.coefficient_products, start=1):
                tracer.products[n] = len(products)
            wrapped = [TracedFlowMap(level, tracer.step_hook(n))
                       for n, level in enumerate(fam.levels, start=1)]
            return dataclasses.replace(fam, levels=wrapped)

        return traced_family

    def counted_call(call):
        def traced_call(flow, state, tau):
            tracer.counts["flowmap.calls"] += 1
            return call(flow, state, tau)
        return traced_call

    def row_counter(add_row):
        def traced_add_row(table, **cells):
            tracer.rows += 1
            return add_row(table, **cells)
        return traced_add_row

    try:
        for name in BASE_CONSTRUCTORS:
            patch(bench_run, name, constructor(tracer.base_hook))
        for name in STAGE_CONSTRUCTORS:
            patch(bench_run, name, constructor(tracer.stage_hook))
        patch(bench_run, "recursive_family", family)
        for name, span_name in RUN_SPANS.items():
            patch(bench_run, name, lambda fn, s=span_name: tracer.wrap(s, fn))
        for module, name in LOG_SPANS:
            patch(module, name, lambda fn, n=name: tracer.wrap(f"complexlog.{n}", fn))
        for module in FFT_MODULES:
            patch(module, "np", lambda _: _numpy_with_traced_fft(tracer))
        patch(FlowMap, "__call__", counted_call)
        patch(ResultTable, "add_row", row_counter)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def span_times(tracer):
    """Per-span ``(duration_ns, self_ns)``: self time is the duration minus
    the time covered by the span's direct children."""
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration, duration - covered


def totals_by_name(tracer):
    """``{name: (count, total_ns, self_ns)}`` over all recorded spans."""
    duration, self_ns = span_times(tracer)
    names = np.frombuffer(tracer.name, dtype=np.uint16)
    k = len(tracer.names)
    counts = np.bincount(names, minlength=k)
    totals = np.bincount(names, weights=duration, minlength=k)
    selfs = np.bincount(names, weights=self_ns, minlength=k)
    return {name: (int(counts[i]), float(totals[i]), float(selfs[i]))
            for i, name in enumerate(tracer.names)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, calls):
    """Per-layer metrics of ``calls`` traced preset runs.

    Per-step and per-evaluation figures divide by the steps and base
    evaluations the traced runs made; ``*_s`` figures are per preset run;
    shares divide by the time inside ``run_preset``.
    """
    spans = totals_by_name(tracer)

    def get(name):
        return spans.get(name, (0, 0.0, 0.0))

    def summed(prefix):
        parts = [v for k, v in spans.items() if k.startswith(prefix)]
        return tuple(sum(p[i] for p in parts) for i in range(3)) if parts else (0, 0.0, 0.0)

    counts = tracer.counts
    steps = sum(v for k, v in counts.items() if k.startswith("steps."))
    evals = sum(v for k, v in counts.items() if k.startswith("base_evals."))
    run_ns = get("bench.run_preset")[1]
    out = {}
    for n in LEVELS:
        level_steps = counts[f"steps.L{n}"]
        per_step = _ratio(counts[f"base_evals.L{n}"], level_steps)
        _, total, self_ns = get(f"composition.L{n}")
        out[f"composition.base_evals_per_step.L{n}"] = per_step
        out[f"composition.useful_eval_ratio.L{n}"] = _ratio(tracer.products.get(n, 0), per_step)
        out[f"composition.step_us.L{n}"] = _ratio(total, level_steps) / 1e3
        out[f"composition.self_us_per_step.L{n}"] = _ratio(self_ns, level_steps) / 1e3
    out["composition.build_s"] = get("composition.build")[1] / calls / 1e9
    out["flowmap.calls_per_step"] = _ratio(counts["flowmap.calls"], steps)
    log_calls, log_ns, _ = summed("complexlog.")
    out["complexlog.calls_per_step"] = _ratio(log_calls, steps)
    out["complexlog.us_per_call"] = _ratio(log_ns, log_calls) / 1e3
    out["complexlog.share"] = _ratio(log_ns, run_ns)
    fft_calls, fft_ns, _ = get("spectral.fft")
    out["spectral.fft_calls_per_step"] = _ratio(fft_calls, steps)
    out["spectral.fft_calls_per_eval"] = _ratio(fft_calls, evals)
    out["spectral.fft_us_per_call"] = _ratio(fft_ns, fft_calls) / 1e3
    out["spectral.fft_share"] = _ratio(fft_ns, run_ns)
    _, base_ns, base_self = get("problems.base")
    out["problems.base_us_per_eval"] = _ratio(base_ns, evals) / 1e3
    out["problems.base_self_us_per_eval"] = _ratio(base_self, evals) / 1e3
    out["problems.stage_calls_per_eval"] = _ratio(counts["problems.stage_calls"], evals)
    out["diagnostics.self_s"] = summed("diagnostics.")[2] / calls / 1e9
    out["diagnostics.fit_s"] = get("diagnostics.fit")[1] / calls / 1e9
    out["bench.emit_s"] = get("bench.emit")[1] / calls / 1e9
    out["bench.config_s"] = get("bench.config")[1] / calls / 1e9
    return out


def write_spans(tracer, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "start_ns", "end_ns", "parent", "cell"])
        for i in range(len(tracer.start)):
            writer.writerow([tracer.names[tracer.name[i]], tracer.start[i],
                             tracer.end[i], tracer.parent[i], tracer.cell[i]])
