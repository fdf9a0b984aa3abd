"""Workload definitions, input generation and correctness gates.

A workload is one invocation of the public CLI (``postselect.cli.main``).
Each one is built from the workload seed alone, so the same seed gives the
same inputs, and each comes with gates that decide whether one run of the
CLI produced correct output.  Gates return a list of failure messages; an
empty list means the output passed.

The load generator imports this module but never times anything in it:
inputs, reference results and gates all run outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

DEFAULT_SEED = 42

# The ROADMAP regression anchor for the reference study at seed 42.
ANCHOR_SEED = 42
ANCHOR = {
    "coverage_selected": 0.861,
    "coverage_oracle": 0.953,
    "mean_ratio_overfit": 1.05330,
}

# sha256 of records.csv at seed 42, full size.  sim-ref and sim-ref-w2 share
# one digest because records must not depend on the worker count.
PINNED_RECORDS_SHA256 = {
    "sim-ref": "1bf72b82c413a40f5cd1ba14db37bf7191ebc779e7f498987d003ffced167152",
    "sim-ref-w2": "1bf72b82c413a40f5cd1ba14db37bf7191ebc779e7f498987d003ffced167152",
    "sim-narrow": "dec12d4242e48522319a5b94a7cef4dab3078d843b52eb8c998ac58ec44ae0f2",
}

# README acceptance bands for the reference configuration (any seed).
REFERENCE_BANDS = {
    "coverage_selected": (0.83, 0.89),
    "coverage_oracle": (0.93, 0.97),
    "mean_ratio_overfit": (1.04, 1.08),
    "containment_rate": (0.99, 1.0),
}

# At most this many replications per run are recomputed in-process and
# compared row by row with the CLI's records.csv.
LIBRARY_CHECK_ROWS = 100

# Relative tolerance between the CLI's gamma values and the brute force.
GAMMA_RTOL = 1e-9


@dataclass(frozen=True)
class SimSpec:
    n: int
    p: int
    beta_star: tuple[float, ...]
    reps: int
    workers: int
    rho: float = 0.5
    sigma: float = 1.0
    criterion: str = "aic"


@dataclass(frozen=True)
class SelectSpec:
    n: int
    p: int
    support: int
    criterion: str = "bic"
    rho: float = 0.5
    top: int = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: object
    reference: bool = False  # the paper's reference config: anchor and bands apply
    pinned: bool = False  # full size: pinned digests apply at seed 42

    @property
    def is_sim(self) -> bool:
        return isinstance(self.spec, SimSpec)


def _ref_beta(p: int) -> tuple[float, ...]:
    return (1.0, 2.0, 3.0) + (0.0,) * (p - 3)


def build_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The four benchmark workloads; ``tiny`` shrinks them for the self-test."""
    ref_p, ref_reps = (8, 20) if tiny else (10, 1000)
    ref = SimSpec(n=50, p=ref_p, beta_star=_ref_beta(ref_p), reps=ref_reps, workers=1)
    narrow = SimSpec(
        n=50, p=4, beta_star=(1.0, 2.0, 0.0, 0.0), reps=20 if tiny else 5000, workers=1
    )
    wide = SelectSpec(n=200, p=8 if tiny else 18, support=3)
    workloads = [
        Workload(
            "sim-ref",
            "the paper's reference study, serial; select is ~84% of the time",
            ref,
            reference=not tiny,
            pinned=not tiny,
        ),
        Workload(
            "sim-ref-w2",
            "the reference study on the two-worker process pool path",
            replace(ref, workers=2),
            reference=not tiny,
            pinned=not tiny,
        ),
        Workload(
            "sim-narrow",
            "p=4: 16 subsets, so data generation, refits and intervals dominate",
            narrow,
            pinned=not tiny,
        ),
        Workload(
            "select-wide",
            "one p=18 CSV: 262144 subsets, subset cache, ranking sort and memory",
            wide,
        ),
    ]
    return {w.name: w for w in workloads}


# ---------------------------------------------------------------------------
# simulate workloads
# ---------------------------------------------------------------------------


def sim_argv(spec: SimSpec, seed: int, out_dir: str) -> list[str]:
    return [
        "simulate",
        "--seed", str(seed),
        "--n", str(spec.n),
        "--p", str(spec.p),
        "--beta-star", ",".join(repr(b) for b in spec.beta_star),
        "--rho", repr(spec.rho),
        "--sigma", repr(spec.sigma),
        "--reps", str(spec.reps),
        "--criterion", spec.criterion,
        "--workers", str(spec.workers),
        "--out-dir", out_dir,
    ]


def sim_config(spec: SimSpec, seed: int, workers: Optional[int] = None):
    """The ExperimentConfig the CLI builds from ``sim_argv``."""
    from postselect import Criterion, ExperimentConfig

    crit = Criterion.aic() if spec.criterion == "aic" else Criterion.bic()
    return ExperimentConfig(
        n=spec.n,
        p=spec.p,
        sigma=spec.sigma,
        beta_star=spec.beta_star,
        rho=spec.rho,
        reps=spec.reps,
        criterion=crit,
        seed=seed,
        workers=spec.workers if workers is None else workers,
    )


def library_check_indices(reps: int) -> range:
    return range(0, reps, max(1, reps // LIBRARY_CHECK_ROWS))


@dataclass
class SimReference:
    """Expected records.csv rows, recomputed serially through the library."""

    header: str
    rows: dict[int, str]
    digest: Optional[str]


def sim_reference(w: Workload, seed: int) -> SimReference:
    from postselect import run_replication
    from postselect.cli import records_csv_text

    cfg = sim_config(w.spec, seed, workers=1)
    rows = {}
    for i in library_check_indices(w.spec.reps):
        header, row = records_csv_text([run_replication(cfg, i)]).splitlines()
        rows[i] = row
    digest = PINNED_RECORDS_SHA256.get(w.name) if w.pinned and seed == ANCHOR_SEED else None
    return SimReference(header=header, rows=rows, digest=digest)


def _rates_from_records(text: str) -> dict[str, float]:
    rows = list(csv.DictReader(io.StringIO(text)))
    reps = len(rows)
    rates = {
        name: sum(int(r[col]) for r in rows) / reps
        for name, col in (
            ("coverage_selected", "covered_selected"),
            ("coverage_oracle", "covered_oracle"),
            ("containment_rate", "contains_star"),
            ("exact_rate", "exact"),
            ("strict_overfit_rate", "strict_overfit"),
            ("condition_rate", "condition_holds"),
        )
    }
    ratios = [float(r["ratio"]) for r in rows if r["strict_overfit"] == "1"]
    rates["mean_ratio_overfit"] = sum(ratios) / len(ratios) if ratios else None
    return rates


def gate_simulate(w: Workload, seed: int, ref: SimReference, out_dir: str) -> list[str]:
    """Check one simulate run's records.csv and summary.json."""
    try:
        with open(os.path.join(out_dir, "records.csv"), "rb") as fh:
            raw = fh.read()
        with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {exc}"]

    failures = []
    lines = text.splitlines()
    if not lines or lines[0] != ref.header:
        return ["records.csv header differs from the library's"]
    rows = lines[1:]
    if len(rows) != w.spec.reps:
        return [f"records.csv has {len(rows)} rows, expected {w.spec.reps}"]
    for i, expected in ref.rows.items():
        if rows[i] != expected:
            failures.append(f"records.csv row {i} differs from serial run_replication")
            break
    if ref.digest is not None:
        digest = hashlib.sha256(raw).hexdigest()
        if digest != ref.digest:
            failures.append(f"records.csv sha256 {digest} != pinned {ref.digest}")

    try:
        rates = _rates_from_records(text)
    except (KeyError, ValueError) as exc:
        return failures + [f"records.csv unparsable: {exc}"]
    for key, value in rates.items():
        if summary.get(key) != value:
            failures.append(f"summary.json {key}={summary.get(key)} != records {value}")
    if w.reference:
        for key, (lo, hi) in REFERENCE_BANDS.items():
            value = summary.get(key)
            if value is None or not lo <= value <= hi:
                failures.append(f"{key}={value} outside the band [{lo}, {hi}]")
        if seed == ANCHOR_SEED:
            for key, expected in ANCHOR.items():
                if round(summary.get(key) or 0.0, 5) != expected:
                    failures.append(f"{key}={summary.get(key)} misses the anchor {expected}")
    return failures


# ---------------------------------------------------------------------------
# select workload
# ---------------------------------------------------------------------------


def select_inputs(spec: SelectSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """An AR(1) design with ``spec.support`` nonzero coefficients, from the seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((spec.n, spec.p))
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    scale = math.sqrt(1.0 - spec.rho * spec.rho)
    for j in range(1, spec.p):
        x[:, j] = spec.rho * x[:, j - 1] + scale * z[:, j]
    beta = np.zeros(spec.p)
    support = rng.choice(spec.p, size=spec.support, replace=False)
    beta[support] = rng.uniform(1.0, 3.0, size=spec.support)
    y = x @ beta + rng.standard_normal(spec.n)
    return y, x


def write_select_csv(path: str, y: np.ndarray, x: np.ndarray) -> None:
    # repr(float(v)): the CLI parses cells with float(), which rejects the
    # numpy-2 repr "np.float64(...)".
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["y"] + [f"x{j + 1}" for j in range(x.shape[1])]) + "\n")
        for yi, row in zip(y, x):
            fh.write(",".join(repr(float(v)) for v in (yi, *row)) + "\n")


def select_argv(spec: SelectSpec, csv_path: str) -> list[str]:
    return [
        "select", csv_path,
        "--criterion", spec.criterion,
        "--top", str(spec.top),
        "--json",
    ]


def _c_n(criterion: str, n: int) -> float:
    return 2.0 if criterion == "aic" else math.log(n)


@dataclass
class SelectReference:
    """Brute-force ranking of every subset, independent of the package."""

    ranked: list[tuple[float, tuple[int, ...]]]  # (gamma, 1-based subset), best first
    y: np.ndarray
    x: np.ndarray
    c_n: float


def select_reference(spec: SelectSpec, y: np.ndarray, x: np.ndarray) -> SelectReference:
    """Score all 2^p subsets from the centered normal equations.

    Batched ``np.linalg.solve`` on Gram sub-matrices keeps this under a
    second at p=18; the subsets the CLI reports are re-scored with
    ``np.linalg.lstsq`` in the gate itself.
    """
    n, p = x.shape
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    gram, xty, yty = xc.T @ xc, xc.T @ yc, float(yc @ yc)
    cn = _c_n(spec.criterion, n)
    ranked = [(n * math.log(yty), ())]
    for k in range(1, p + 1):
        combos = np.array(list(itertools.combinations(range(p), k)), dtype=np.intp)
        for chunk in np.array_split(combos, max(1, len(combos) // 8192)):
            g = gram[chunk[:, :, None], chunk[:, None, :]]
            b = xty[chunk]
            coef = np.linalg.solve(g, b[..., None])[..., 0]
            sse = yty - np.einsum("mk,mk->m", b, coef)
            gammas = n * np.log(sse) + cn * k
            ranked.extend(
                (float(gv), tuple(int(i) + 1 for i in row)) for gv, row in zip(gammas, chunk)
            )
    ranked.sort(key=lambda t: (t[0], len(t[1]), t[1]))
    return SelectReference(ranked=ranked, y=y, x=x, c_n=cn)


def _lstsq_gamma(ref: SelectReference, subset: tuple[int, ...]) -> float:
    n = ref.x.shape[0]
    design = np.column_stack([np.ones(n), ref.x[:, [i - 1 for i in subset]]])
    coef = np.linalg.lstsq(design, ref.y, rcond=None)[0]
    resid = ref.y - design @ coef
    return n * math.log(float(resid @ resid)) + ref.c_n * len(subset)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= GAMMA_RTOL * max(1.0, abs(a), abs(b))


def gate_select(spec: SelectSpec, ref: SelectReference, stdout_path: str) -> list[str]:
    """Check the chosen subset and the top-k table against the brute force."""
    try:
        with open(stdout_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        chosen = tuple(obj["chosen"])
        table = [(float(row["gamma"]), tuple(row["subset"])) for row in obj["gamma_table"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable select output: {exc}"]

    failures = []
    top = ref.ranked[: spec.top]
    if len(table) != len(top):
        return [f"gamma_table has {len(table)} rows, expected {len(top)}"]
    best_gamma, best_subset = top[0]
    runner_up = ref.ranked[1][0]
    if chosen != best_subset and not _close(best_gamma, runner_up):
        failures.append(f"chosen {chosen} != brute-force minimizer {best_subset}")
    if table[0][1] != chosen:
        failures.append("gamma_table does not start with the chosen subset")
    for rank, ((g_cli, s_cli), (g_ref, s_ref)) in enumerate(zip(table, top), start=1):
        if not _close(g_cli, g_ref):
            failures.append(f"rank {rank}: gamma {g_cli!r} != brute force {g_ref!r}")
        if not _close(g_cli, _lstsq_gamma(ref, s_cli)):
            failures.append(f"rank {rank}: gamma of {s_cli} disagrees with lstsq")
    return failures[:5]
