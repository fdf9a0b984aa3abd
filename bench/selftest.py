"""Self-test of the benchmark at tiny size (about a minute).

Usage (from the repository root): python3 bench/selftest.py

Checks that:
- BENCHMARK.json names the same workloads and metrics, with the same units,
  as the code;
- every workload, shrunk (reps=20, p=8; select-wide at p=8), emits every
  end-to-end metric untraced and every per-layer metric traced, all passing
  their gates;
- each workload reports error_rate 1.0 when its output is corrupted before
  the gates see it;
- the benchmark fails, printing no result, without the package beside it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from traced import PER_LAYER_UNITS

SEED = 42
SECONDS = 1.0


def corrupt(target: Path) -> None:
    """Change one value in a run's output: row 0 of records.csv, or gamma #1."""
    if target.is_dir():
        path = target / "records.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) * 1.5)
        lines[1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
    else:
        obj = json.loads(target.read_text(encoding="utf-8"))
        obj["gamma_table"][0]["gamma"] += 1.0
        target.write_text(json.dumps(obj), encoding="utf-8")


class Checker:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures.append(what)


def check_contract_file(c: Checker) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    c.check(
        [w["name"] for w in spec["workloads"]] == list(workloads.build_workloads()),
        "BENCHMARK.json workloads match the code",
    )
    c.check(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
        "BENCHMARK.json end-to-end metrics and units match the code",
    )
    c.check(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS,
        "BENCHMARK.json per-layer metrics and units match the code",
    )


def _finite(line: dict) -> bool:
    return all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in line["metrics"].values()
    )


def check_workload(c: Checker, w: workloads.Workload) -> None:
    result = run.measure(w, SEED, SECONDS, trace=False, tiny=True)
    line = json.loads(json.dumps(run.contract_line(result)))
    c.check(
        line["correct"] and result["error_rate"] == 0.0,
        f"{w.name}: untraced run passes its gates {result['failures']}",
    )
    c.check(
        set(line["metrics"]) == set(run.END_TO_END_UNITS)
        and _finite(line)
        and all(m["value"] > 0 for m in line["metrics"].values()),
        f"{w.name}: every end-to-end metric is present and positive",
    )

    result = run.measure(w, SEED, SECONDS, trace=True, tiny=True)
    line = run.contract_line(result)
    c.check(line["correct"], f"{w.name}: traced run passes its gates {result['failures']}")
    c.check(
        set(line["metrics"]) == set(PER_LAYER_UNITS) and _finite(line),
        f"{w.name}: every per-layer metric is present",
    )
    if w.name == "sim-ref":
        coverage = line["metrics"]["trace.span_coverage"]["value"]
        c.check(coverage > 0.95, f"sim-ref: span self times cover {coverage:.4f} of the traced total")

    result = run.measure(w, SEED, SECONDS, trace=False, tiny=True, tamper=corrupt)
    c.check(
        result["error_rate"] == 1.0 and not run.contract_line(result)["correct"],
        f"{w.name}: corrupted output gives error_rate {result['error_rate']}",
    )


def check_without_package(c: Checker) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-ref", "--seconds", "1"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    printed_result = done.stdout.strip().startswith("{") or '"correct"' in done.stdout
    c.check(
        done.returncode != 0 and not printed_result,
        f"without the package the benchmark exits {done.returncode} and prints no result",
    )
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    c = Checker()
    check_contract_file(c)
    for w in workloads.build_workloads(tiny=True).values():
        check_workload(c, w)
    check_without_package(c)
    print(f"{len(c.failures)} failed" if c.failures else "all checks passed")
    return 1 if c.failures else 0


if __name__ == "__main__":
    sys.exit(main())
