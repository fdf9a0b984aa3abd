"""Traced pass: per-layer spans around the package's public functions.

Usage: python3 traced.py REPORT_PATH SPANS_PATH WORKLOAD SEED TINY

Runs in a fresh interpreter, like an untraced iteration.  For a simulate
workload it re-implements the replication loop from public calls
(generate_dataset -> ols_fit -> select -> ols_fit -> mean_response_ci x2 ->
theorem_report), wrapping each call in a span, and then checks that the
first replications equal ``run_replication``'s, so the layer numbers
describe the real program.  For ``select-wide`` it times the calls the
``select`` subcommand makes, one at a time, and then ``cli.main`` itself.

``trace.overhead_frac`` is what the spans cost: on a simulate workload,
sampled replications run through the same code with and without spans in
this process; on ``select-wide``, whose few spans cover seconds of work,
it is derived from the measured cost of one span.

Spans stay in memory and are written once, at the end, to SPANS_PATH.
The per-layer metrics go to REPORT_PATH as JSON, in raw seconds; the load
generator rescales them (see calibration.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np

from postselect import (
    QueryPoint,
    ReplicationRecord,
    RngStream,
    centered_dataset,
    covers,
    generate_dataset,
    mean_response_ci,
    ols_fit,
    run_experiment,
    run_replication,
    select,
    summarize,
    theorem_report,
    true_mean_response,
)
from postselect import cli
from postselect.errors import DegenerateReplication

import workloads

# Replications whose traced records must equal run_replication's.
FIDELITY_REPS = 5

# Tries of the two-replication pool run behind pool_fixed_s.
POOL_FIXED_TRIES = 3

# At most this many replications run both traced and untraced, back to
# back, for trace.overhead_frac.
OVERHEAD_PAIRS = 200

# Empty spans timed for the per-span cost behind select-wide's overhead.
SPAN_COST_SAMPLES = 20000

# Every per-layer metric with its unit.  A metric whose layer a workload
# does not exercise reads 0 there (see bench/README.md).
PER_LAYER_UNITS = {
    "simulation.generate_dataset.ms_p50": "ms",
    "simulation.generate_dataset.ms_p99": "ms",
    "simulation.generate_dataset.share": "fraction",
    "linalg.ols_fit.ms_p50": "ms",
    "linalg.ols_fit.calls": "count",
    "linalg.ols_fit.share": "fraction",
    "inference.mean_response_ci.ms_p50": "ms",
    "inference.mean_response_ci.share": "fraction",
    "selection.theorem_report.ms_p50": "ms",
    "selection.theorem_report.calls": "count",
    "selection.theorem_report.share": "fraction",
    "selection.select.ms_p50": "ms",
    "selection.select.ms_p99": "ms",
    "selection.select.share": "fraction",
    "selection.select.us_per_subset": "us",
    "selection.select.subsets_scored": "count",
    "selection.select.rank_deficient": "count",
    "selection.select.floor_clamped": "count",
    "selection.select.first_call_s": "s",
    "selection.select.warm_s": "s",
    "selection.select.peak_alloc_mb": "MB",
    "cli.select.self_s": "s",
    "simulation.summarize.ms": "ms",
    "cli.records_csv_text.ms": "ms",
    "cli.output_bytes": "bytes",
    "simulation.run_experiment.pool_efficiency": "fraction",
    "simulation.run_experiment.pool_fixed_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.span_coverage": "fraction",
    "error_rate": "fraction",  # failed / attempted over the run, set by run.py
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, rep id).

    A finished span is a tuple of atoms, which the cyclic garbage collector
    stops tracking, so tens of thousands of spans do not slow collections.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._reps: list = []  # rep id per span, for children to inherit

    def span(self, name: str, rep: int | None = None) -> "_Span":
        return _Span(self, name, rep)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s[0]] = totals.get(s[0], 0.0) + t
        return totals

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "rep")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class NullTracer:
    """Stands in for a Tracer where the same calls run without spans."""

    _none = contextlib.nullcontext()

    def span(self, name: str, rep: int | None = None) -> contextlib.nullcontext:
        return self._none


class _Span:
    __slots__ = ("tracer", "name", "rep", "parent", "index", "start")

    def __init__(self, tracer: Tracer, name: str, rep: int | None) -> None:
        self.tracer, self.name, self.rep = tracer, name, rep

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        if self.rep is None and self.parent >= 0:
            self.rep = tr._reps[self.parent]
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._reps.append(self.rep)
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr.spans[self.index] = (self.name, self.start, end, self.parent, self.rep)
        tr._stack.pop()


class SelectCounts:
    def __init__(self) -> None:
        self.scored = self.rank_deficient = self.floor_clamped = 0

    def add(self, result) -> None:
        self.scored += len(result.gamma_values)
        self.rank_deficient += sum(1 for _, why in result.skipped if why == "rank deficient")
        self.floor_clamped += result.truncated_sse_count


def replica(cfg, rep: int, tr: Tracer, counts: SelectCounts) -> ReplicationRecord:
    """One replication rebuilt from public calls, each call in a span."""
    with tr.span("simulation.generate_dataset"):
        gen = generate_dataset(cfg, RngStream(cfg.seed, substream=rep))
    data = gen.data
    with tr.span("linalg.ols_fit"):
        oracle_fit = ols_fit(data, cfg.s_star)
    with tr.span("selection.select"):
        result = select(data, cfg.criterion)
    counts.add(result)
    if result.truncated_sse_count:
        raise DegenerateReplication(f"replication {rep}: subsets hit the SSE floor")
    s_hat = result.chosen
    with tr.span("linalg.ols_fit"):
        selected_fit = ols_fit(data, s_hat)
    query = QueryPoint(x=gen.query_x_raw - gen.raw_column_means, centered=True)
    truth = true_mean_response(query, np.asarray(cfg.beta_star))
    with tr.span("inference.mean_response_ci"):
        ci_oracle = mean_response_ci(data, oracle_fit, query, cfg.alpha)
    with tr.span("inference.mean_response_ci"):
        ci_selected = mean_response_ci(data, selected_fit, query, cfg.alpha)
    strict = cfg.s_star.is_strict_subset(s_hat)
    condition = False
    if strict:
        with tr.span("selection.theorem_report"):
            condition = theorem_report(data, cfg.s_star, s_hat, cfg.criterion).condition_holds
    return ReplicationRecord(
        rep_index=rep,
        s_hat=s_hat,
        sigma_hat_selected=selected_fit.sigma_hat,
        sigma_hat_oracle=oracle_fit.sigma_hat,
        ratio=oracle_fit.sigma_hat / selected_fit.sigma_hat,
        contains_star=cfg.s_star.issubset(s_hat),
        strict_overfit=strict,
        exact=s_hat == cfg.s_star,
        covered_selected=covers(ci_selected, truth),
        covered_oracle=covers(ci_oracle, truth),
        ci_width_selected=ci_selected.width,
        ci_width_oracle=ci_oracle.width,
        condition_holds=condition,
    )


def _peak_alloc_mb(data, crit) -> float:
    tracemalloc.start()
    try:
        select(data, crit)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _layer_metrics(tr: Tracer, total: float) -> dict[str, float]:
    own = tr.self_times()
    out = {}
    for layer in (
        "simulation.generate_dataset",
        "linalg.ols_fit",
        "inference.mean_response_ci",
        "selection.theorem_report",
        "selection.select",
    ):
        d = tr.durations(layer)
        if not d:
            continue
        out[f"{layer}.ms_p50"] = statistics.median(d) * 1e3
        out[f"{layer}.ms_p99"] = float(np.percentile(d, 99)) * 1e3
        out[f"{layer}.calls"] = len(d)
        out[f"{layer}.share"] = own.get(layer, 0.0) / total
    out["trace.span_coverage"] = sum(own.values()) / total
    return {k: v for k, v in out.items() if k in PER_LAYER_UNITS}


def trace_simulate(w, seed: int, tr: Tracer) -> tuple[dict, list[str]]:
    cfg = workloads.sim_config(w.spec, seed, workers=1)
    counts = SelectCounts()
    records = []
    t0 = time.perf_counter()
    for i in range(cfg.reps):
        with tr.span("simulation.run_replication", rep=i):
            records.append(replica(cfg, i, tr, counts))
    with tr.span("simulation.summarize"):
        summarize(records, 0.0, cfg.seed)
    with tr.span("cli.records_csv_text"):
        cli.records_csv_text(records)
    total = time.perf_counter() - t0

    failures = [
        f"traced replica {i} differs from run_replication"
        for i in range(min(FIDELITY_REPS, cfg.reps))
        if records[i] != run_replication(cfg, i)
    ]

    m = _layer_metrics(tr, total)
    select_d = tr.durations("selection.select")
    m["selection.select.us_per_subset"] = sum(select_d) / counts.scored * 1e6
    m["selection.select.subsets_scored"] = counts.scored
    m["selection.select.rank_deficient"] = counts.rank_deficient
    m["selection.select.floor_clamped"] = counts.floor_clamped
    m["selection.select.first_call_s"] = select_d[0]
    m["selection.select.warm_s"] = statistics.median(select_d[1:] or select_d)
    m["simulation.summarize.ms"] = tr.durations("simulation.summarize")[0] * 1e3
    m["cli.records_csv_text.ms"] = tr.durations("cli.records_csv_text")[0] * 1e3
    data0 = generate_dataset(cfg, RngStream(cfg.seed, substream=0)).data
    m["selection.select.peak_alloc_mb"] = _peak_alloc_mb(data0, cfg.criterion)

    m["trace.overhead_frac"] = _overhead_frac(cfg)

    extra = {"total_s": total, "serial_busy_s": sum(tr.durations("simulation.run_replication"))}
    if w.spec.workers > 1:
        m["simulation.run_experiment.pool_fixed_s"] = _pool_fixed_s(cfg, w.spec.workers)
    return {"metrics": m, **extra}, failures


def _overhead_frac(cfg) -> float:
    """(traced - untraced) / untraced time of the same replications.

    Each sampled replication runs as in the traced loop, once with spans
    and once with a NullTracer, back to back and in alternating order, so
    drift of the machine's speed cancels out of the comparison.
    """
    spans, none, counts = Tracer(), NullTracer(), SelectCounts()
    took = {True: 0.0, False: 0.0}
    for k, i in enumerate(range(0, cfg.reps, max(1, cfg.reps // OVERHEAD_PAIRS))):
        for traced in (True, False) if k % 2 == 0 else (False, True):
            tracer = spans if traced else none
            t0 = time.perf_counter()
            with tracer.span("simulation.run_replication", rep=i):
                replica(cfg, i, tracer, counts)
            took[traced] += time.perf_counter() - t0
    return (took[True] - took[False]) / took[False]


def _span_cost_s() -> float:
    """Seconds one span adds to an empty ``with`` block."""
    tr, none = Tracer(), NullTracer()
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        with tr.span("cost"):
            pass
    t1 = time.perf_counter()
    for _ in range(SPAN_COST_SAMPLES):
        with none.span("cost"):
            pass
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / SPAN_COST_SAMPLES


def _pool_fixed_s(cfg, workers: int) -> float:
    """Wall of a pooled two-replication run minus those replications' serial time."""
    small = replace(cfg, reps=2, workers=workers)
    fixed = []
    for _ in range(POOL_FIXED_TRIES):
        t0 = time.perf_counter()
        run_experiment(small)
        pooled = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(small.reps):
            run_replication(small, i)
        fixed.append(pooled - (time.perf_counter() - t0))
    return statistics.median(fixed)


def trace_select(w, seed: int, csv_path: str, tr: Tracer) -> tuple[dict, list[str]]:
    from postselect import Criterion

    spec = w.spec
    raw = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    y, x = raw[:, 0], raw[:, 1:]
    crit = Criterion.bic() if spec.criterion == "bic" else Criterion.aic()
    counts = SelectCounts()

    with tr.span("linalg.centered_dataset"):
        data, _, _ = centered_dataset(y, x)
    with tr.span("selection.select"):
        result = select(data, crit)
    counts.add(result)
    for _ in range(2):
        with tr.span("selection.select"):
            select(data, crit)
    with tr.span("linalg.ols_fit"):
        ols_fit(data, result.chosen)
    buf = io.StringIO()
    with redirect_stdout(buf), tr.span("cli.main"):
        code = cli.main(workloads.select_argv(spec, csv_path))

    select_d = tr.durations("selection.select")
    first, warm = select_d[0], statistics.median(select_d[1:])
    cli_wall = tr.durations("cli.main")[0]
    centered = tr.durations("linalg.centered_dataset")[0]
    fit = tr.durations("linalg.ols_fit")[0]
    # cli.main ran with a warm subset cache, so subtract the warm select;
    # the traced total is the same call with the cold-cache cost added back.
    self_s = cli_wall - (centered + warm + fit)
    total = centered + first + fit + self_s

    failures = [] if code == 0 else [f"cli.main exited {code}"]
    if code == 0:
        obj = json.loads(buf.getvalue())
        if tuple(obj["chosen"]) != result.chosen.indices:
            failures.append("cli.main chose another subset than select()")
    m = {
        "selection.select.ms_p50": warm * 1e3,
        "selection.select.ms_p99": max(select_d) * 1e3,
        "selection.select.share": first / total,
        "selection.select.us_per_subset": first / counts.scored * 1e6,
        "selection.select.subsets_scored": counts.scored,
        "selection.select.rank_deficient": counts.rank_deficient,
        "selection.select.floor_clamped": counts.floor_clamped,
        "selection.select.first_call_s": first,
        "selection.select.warm_s": warm,
        "selection.select.peak_alloc_mb": _peak_alloc_mb(data, crit),
        "linalg.ols_fit.ms_p50": fit * 1e3,
        "linalg.ols_fit.calls": 1,
        "linalg.ols_fit.share": fit / total,
        "cli.select.self_s": self_s,
        "cli.output_bytes": len(buf.getvalue().encode("utf-8")),
    }
    # A handful of spans over seconds of work: timing the sequence twice
    # would measure only drift, so the overhead is derived from the cost
    # of one span.
    cost = len(tr.spans) * _span_cost_s()
    m["trace.overhead_frac"] = cost / (total - cost)
    derived = ["cli.select.self_s", "trace.overhead_frac"]
    return {"metrics": m, "total_s": total, "derived": derived}, failures


def main() -> int:
    report_path, spans_path, name, seed, tiny = sys.argv[1:6]
    w = workloads.build_workloads(tiny=tiny == "1")[name]
    tr = Tracer()
    if w.is_sim:
        report, failures = trace_simulate(w, int(seed), tr)
    else:
        report, failures = trace_select(w, int(seed), sys.argv[6], tr)
    tr.dump(spans_path)
    report["failures"] = failures
    report["spans"] = len(tr.spans)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
