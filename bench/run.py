"""Benchmark for postselect: end-to-end runs of the CLI and a traced run.

Usage (from the repository root):

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload sim-ref --seed 7 --seconds 20 --trace 0

The load generator is a closed loop: it starts one fresh interpreter at a
time (``bench/child.py``), which imports ``postselect.cli`` and calls
``postselect.cli.main`` once; the next child starts when the previous one
has exited and its output has passed the workload's correctness gates.
Iterations repeat until ``--seconds`` would be exceeded; every metric is
the median over the iterations of one run.  Set-up time is also sampled
from import-only children before the loop.

With ``--trace 1`` a traced pass follows the untraced loop
(``bench/traced.py``) and the run reports the per-layer metrics instead of
the end-to-end ones.

The environment is left as the user has it: BLAS threads are not pinned.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller result file, with the samples and an
environment fingerprint, goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import workloads  # noqa: E402
from traced import PER_LAYER_UNITS  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Import-only children per run, on top of the one set-up sample each
# iteration gives; set-up time is the median of all of them.
SETUP_SAMPLES = 7

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

_POLL_S = 0.01


@dataclass
class ChildRun:
    """Raw measurements of one child."""

    code: int
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Finished:
    code: int
    usage: "os.struct_rusage"
    t_spawn: float


def run_child(
    script: str, args: list[str], cwd: Path, stdout_path: Path, timeout: float = CHILD_TIMEOUT_S
) -> Finished:
    """Run one child to completion.

    ``os.wait4`` gives the child's CPU time including the pool workers it
    reaped.
    """
    pid = 0
    status = usage = None
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t_spawn = time.perf_counter()
        # A session of its own, so a timeout can kill the pool workers too.
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *args],
            cwd=cwd,
            env=child_env(),
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
        deadline = t_spawn + timeout
        try:
            while time.perf_counter() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                time.sleep(_POLL_S)
        finally:
            if not pid:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
    return Finished(os.waitstatus_to_exitcode(status), usage, t_spawn)


def run_cli_child(argv: Optional[list[str]], cwd: Path, stdout_path: Path) -> ChildRun:
    report = cwd / "child.json"
    report.unlink(missing_ok=True)
    done = run_child("child.py", [str(report), json.dumps(argv) if argv else ""], cwd, stdout_path)
    code = done.code
    try:
        stamp = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        code = code or 1
        stamp = {"ready": float("nan"), "wall": float("nan"), "peak_rss_mb": float("nan")}
    return ChildRun(
        code=code,
        setup_s=stamp["ready"] - done.t_spawn,
        wall_s=stamp["wall"],
        cpu_s=done.usage.ru_utime + done.usage.ru_stime,
        peak_rss_mb=stamp["peak_rss_mb"],
    )


def _stderr_tail(cwd: Path) -> str:
    try:
        return (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent), GIT_OPTIONAL_LOCKS="0")
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> dict:
    import platform

    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        deps = {}
    blas = deps.get("blas", {})
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None or dirty is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


class WorkloadRunner:
    """Inputs, gates and output locations for one workload at one seed."""

    def __init__(self, w: workloads.Workload, seed: int, work: Path) -> None:
        self.w, self.seed, self.work = w, seed, work
        self.out_dir = work / "out"
        self.stdout = work / "stdout.txt"
        self.first_digest: Optional[str] = None
        if w.is_sim:
            self.argv = workloads.sim_argv(w.spec, seed, str(self.out_dir))
            self.ref = workloads.sim_reference(w, seed)
        else:
            self.csv = work / "data.csv"
            y, x = workloads.select_inputs(w.spec, seed)
            workloads.write_select_csv(str(self.csv), y, x)
            self.argv = workloads.select_argv(w.spec, str(self.csv))
            self.ref = workloads.select_reference(w.spec, y, x)

    def prepare_iteration(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()

    def gate(self) -> list[str]:
        if not self.w.is_sim:
            return workloads.gate_select(self.w.spec, self.ref, str(self.stdout))
        failures = workloads.gate_simulate(self.w, self.seed, self.ref, str(self.out_dir))
        try:
            digest = hashlib.sha256((self.out_dir / "records.csv").read_bytes()).hexdigest()
        except OSError:
            return failures
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            failures.append("records.csv differs from this run's first iteration")
        return failures

    def output_bytes(self) -> int:
        if not self.w.is_sim:
            return self.stdout.stat().st_size
        return sum(f.stat().st_size for f in self.out_dir.iterdir())


_TIME_UNITS = ("s", "ms", "us")


def _summary(samples: list[float], unit: str, factor: float) -> dict:
    """Median of the samples, rescaled if they are times, with the sample count.

    0.0 stands in when every iteration failed; such a run reports correct=false.
    """
    scale = factor if unit in _TIME_UNITS else 1.0
    raw = statistics.median(samples) if samples else 0.0
    return {
        "value": raw * scale,
        "unit": unit,
        "samples": len(samples),
        "min": min(samples, default=0.0) * scale,
        "max": max(samples, default=0.0) * scale,
        "raw_median": raw,
    }


def measure(
    w: workloads.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    tamper: Optional[Callable[[Path], None]] = None,
) -> dict:
    """One benchmark run: set-up samples, the timed loop, then the traced pass.

    Speed samples (see calibration.py) are taken before the first child and
    after each one, so none overlaps a child; their mean gives the one
    factor that rescales every time the run reports.  ``tamper``
    (self-test only) corrupts each iteration's output before the gates see it.
    """
    work = OUT / "work" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    fp = fingerprint()

    # The first import writes bytecode caches and warms the file cache.
    warm = run_cli_child(None, work, work / "import.txt")
    if warm.code != 0:
        raise SystemExit(f"cannot import postselect.cli:\n{_stderr_tail(work)}")
    runner = WorkloadRunner(w, seed, work)

    e2e: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    speed = calibration.sample()
    for _ in range(SETUP_SAMPLES):
        run = run_cli_child(None, work, work / "import.txt")
        speed += calibration.sample()
        if run.code == 0:
            e2e["setup_s"].append(run.setup_s)

    attempted = failed = 0
    failures: list[str] = []
    iterations: list[dict] = []
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        runner.prepare_iteration()
        run = run_cli_child(runner.argv, work, runner.stdout)
        speed += calibration.sample()
        iterations.append(vars(run))
        if tamper is not None:
            tamper(runner.out_dir if w.is_sim else runner.stdout)
        problems = runner.gate() if run.code == 0 else [f"exit code {run.code}: {_stderr_tail(work)}"]
        if problems:
            failed += 1
            failures.extend(f"iteration {attempted}: {p}" for p in problems)
        else:
            for name in END_TO_END_UNITS:
                e2e[name].append(getattr(run, name))
        attempted += 1
        now = time.perf_counter()
        if now - t_start + (now - t_iter) > seconds:
            break

    result = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "spec": vars(w.spec),
        "loop": "closed, one child at a time",
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "iterations": iterations,
    }
    if trace:
        report = _traced_pass(w, seed, tiny, runner, result)
        speed += calibration.sample()
    factor = calibration.factor(speed)
    result["ref_round_s"] = calibration.REF_ROUND_S
    result["speed_samples"] = speed
    result["factor"] = factor
    result["end_to_end"] = {
        name: _summary(samples, END_TO_END_UNITS[name], factor) for name, samples in e2e.items()
    }
    if trace:
        _per_layer(w, runner, report, factor, result)
    result["error_rate"] = result["failed"] / result["attempted"]
    fp["loadavg_end"] = list(os.getloadavg())
    result["fingerprint"] = fp
    return result


def _traced_pass(w, seed, tiny, runner, result) -> dict:
    """Run traced.py once and count it as one more attempt; returns its report."""
    work = runner.work
    report_path = work / "trace.json"
    spans_path = work / "spans.json"
    args = [str(report_path), str(spans_path), w.name, str(seed), "1" if tiny else "0"]
    if not w.is_sim:
        args.append(str(runner.csv))
    code = run_child("traced.py", args, work, work / "trace_stdout.txt").code
    result["attempted"] += 1
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {"metrics": {}, "failures": [f"traced pass exited {code}: {_stderr_tail(work)}"]}
    if code != 0 and not report["failures"]:
        report["failures"] = [f"traced pass exited {code}"]
    if report["failures"]:
        result["failed"] += 1
        result["failures"].extend(f"traced pass: {f}" for f in report["failures"])
    return report


def _per_layer(w, runner, report, factor, result) -> None:
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name, value in report["metrics"].items():
        metrics[name] = value * factor if PER_LAYER_UNITS[name] in _TIME_UNITS else value
    wall = result["end_to_end"]["wall_s"]["value"]
    if w.is_sim and w.spec.workers > 1 and "serial_busy_s" in report and wall > 0:
        metrics["simulation.run_experiment.pool_efficiency"] = (
            report["serial_busy_s"] * factor / (w.spec.workers * wall)
        )
    if w.is_sim and runner.out_dir.is_dir():
        metrics["cli.output_bytes"] = runner.output_bytes()
    metrics["error_rate"] = result["failed"] / result["attempted"]
    result["per_layer"] = {
        name: {"value": value, "unit": PER_LAYER_UNITS[name]} for name, value in metrics.items()
    }
    result["trace_total_s"] = report.get("total_s")
    result["trace_spans"] = report.get("spans")
    result["derived"] = report.get("derived", [])


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def contract_line(result: dict) -> dict:
    section = "per_layer" if result["trace"] else "end_to_end"
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result[section].items()
        },
    }


def print_result(result: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"iterations {result['end_to_end']['wall_s']['samples']}  ({result['why']})"
    )
    for name, m in result["end_to_end"].items():
        print(
            f"  {name:<14} {m['value']:>12.6g} {m['unit']:<3} "
            f"median of {m['samples']} (min {m['min']:.6g}, max {m['max']:.6g}; "
            f"raw median {m['raw_median']:.6g})"
        )
    print(
        f"  {'error_rate':<14} {result['error_rate']:>12.6g}     "
        f"{result['failed']} failed / {result['attempted']} attempted"
    )
    for f in result["failures"]:
        print(f"  FAIL {f}")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def write_result(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{result['workload']}_seed{result['seed']}_trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: Optional[list[str]] = None) -> int:
    all_workloads = workloads.build_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *all_workloads])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    names = list(all_workloads) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        result = measure(all_workloads[name], args.seed, args.seconds, bool(args.trace))
        print_result(result)
        print(f"  result file: {write_result(result).relative_to(ROOT)}", flush=True)
        lines[name] = contract_line(result)

    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, l in lines.items()
                for metric, m in l["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
