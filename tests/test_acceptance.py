"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[ACCEPTANCE n] PASS/FAIL` line (visible with -s or in
failure output).  The Monte Carlo tolerances cover sampling error at the
pinned seed; the property sweeps are exact (zero violations allowed).
"""

import csv
import hashlib
import io
import math
import os
import pathlib
import platform
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from statistics import NormalDist

import numpy as np
import pytest

from postselect import (
    Criterion,
    ExperimentConfig,
    Subset,
    ols_fit,
    overfit_condition,
    select,
    student_t_cdf,
    student_t_quantile,
    theorem_report,
)
from postselect import cli
from postselect.cli import records_csv_text

from oracles import (
    assert_records_match,
    brute_force_select,
    cauchy_quantile,
    covers,
    normal_equations_fit,
    preference_check,
    random_centered_dataset,
    reference_interval,
    reference_records,
    reference_replication,
    t2_quantile,
)
from workloads import ANCHOR_SEED, PINNED_RECORDS_SHA256, build_workloads, sim_argv

ACCEPT_SEED = 42
_SWEEP_WORKERS = 8


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def default_run_cfg() -> ExperimentConfig:
    return ExperimentConfig(seed=ACCEPT_SEED)


@pytest.fixture(scope="module")
def default_run():
    return run_once(default_run_cfg())


def run_once(cfg):
    from postselect import run_experiment

    return run_experiment(cfg)


def test_criterion_1_coverage_collapse(default_run):
    summary, _ = default_run
    ok = (
        0.83 <= summary.coverage_selected <= 0.89
        and 0.93 <= summary.coverage_oracle <= 0.97
        and summary.runtime_seconds < 60.0
    )
    _report(
        1,
        ok,
        f"coverage_selected={summary.coverage_selected:.4f} in [0.83, 0.89]; "
        f"coverage_oracle={summary.coverage_oracle:.4f} in [0.93, 0.97]; "
        f"runtime={summary.runtime_seconds:.1f}s < 60s",
    )


def test_criterion_2_ratio_and_containment(default_run):
    summary, _ = default_run
    ok = (
        summary.mean_ratio_overfit is not None
        and 1.04 <= summary.mean_ratio_overfit <= 1.08
        and summary.containment_rate >= 0.99
    )
    _report(
        2,
        ok,
        f"mean sigma ratio over strict overfits={summary.mean_ratio_overfit:.4f} "
        f"in [1.04, 1.08]; containment_rate={summary.containment_rate:.4f} >= 0.99",
    )


def test_paper_mechanism_bounds_every_ratio(default_run):
    # S_hat beats S*, so SSE(S_hat) / SSE(S*) <= exp(-c_n (|S_hat| - |S*|) / n),
    # and every strict overfit has ratio >= sqrt(exp(a_n d_n) (1 - d_n)); the
    # overfit condition holds exactly when that bound exceeds 1.  Selection
    # and the fits compute SSE differently, so 1e-12 relative is allowed.  A
    # search that missed the minimizer would break the bound.
    _, records = default_run
    cfg = ExperimentConfig(seed=ACCEPT_SEED)
    slack, overfits = math.inf, 0
    for rec in records:
        if not rec.strict_overfit:
            continue
        overfits += 1
        diag = overfit_condition(cfg.n, cfg.s_star.size, rec.s_hat.size, cfg.criterion.c_n(cfg.n))
        bound = math.sqrt(math.exp(diag.a_n * diag.d_n) * (1.0 - diag.d_n))
        assert rec.ratio >= bound * (1.0 - 1e-12), (rec.rep_index, rec.ratio, bound)
        assert rec.condition_holds == (bound > 1.0), rec.rep_index
        slack = min(slack, rec.ratio / bound - 1.0)
    assert overfits == 749
    print(f"\nsmallest slack ratio/bound - 1 over {overfits} strict overfits: {slack:.2g}")


def test_regression_anchor(default_run):
    # the seed-42 defaults reproduce these digits exactly; the bands above
    # would let a behaviour change through
    summary, _ = default_run
    assert summary.coverage_selected == 861 / 1000
    assert summary.coverage_oracle == 953 / 1000
    assert summary.mean_ratio_overfit == pytest.approx(1.05330, abs=1e-5)


def test_records_match_the_reference_oracle(default_run):
    # the records against a replication recomputed one model at a time: the
    # reference study's first 64, and 320 of the p = 4 study
    _, records = default_run
    assert_records_match(records[:64], reference_records(default_run_cfg(), 64))
    narrow = ExperimentConfig(p=4, beta_star=(1.0, 2.0, 0.0, 0.0), seed=ACCEPT_SEED, reps=320)
    assert_records_match(run_once(narrow)[1], reference_records(narrow, narrow.reps))


# Over the seed-42 strict overfits: how many there are, and how many
# intervals at x0 cover the truth -- the selected model's, the oracle's, the
# selected one with the oracle's sigma_hat, and the selected one with sigma
# known (sigma = 1 and the normal quantile).
UNDERCOVERAGE_COUNTS = {
    "aic": (749, 617, 709, 639, 632),
    "bic": (367, 273, 352, 292, 285),
}


@pytest.mark.parametrize("kind", sorted(UNDERCOVERAGE_COUNTS))
def test_undercoverage_comes_mostly_from_the_centre(default_run, kind):
    # Even with sigma known, the selected interval covers 0.844 (AIC) and
    # 0.777 (BIC) of the strict overfits; sigma_hat's underestimation is a
    # small part of the gap to the oracle.  The selection comes from the
    # records, whose fits the reference oracle checks; everything else is
    # recomputed by the oracle.
    cfg = ExperimentConfig(seed=ACCEPT_SEED, criterion=Criterion(kind))
    records = default_run[1] if kind == "aic" else run_once(cfg)[1]
    z = NormalDist().inv_cdf(1.0 - cfg.alpha / 2.0)
    counts = np.zeros(5, dtype=int)
    for rec in records:
        if not rec.strict_overfit:
            continue
        data, x0, truth = reference_replication(cfg, rec.rep_index)
        sel, orc = (reference_interval(data, x0, s) for s in (rec.s_hat, cfg.s_star))
        t_sel, t_orc = (student_t_quantile(part.df, 1.0 - cfg.alpha / 2.0) for part in (sel, orc))
        covered = (
            covers(sel.centre, t_sel * sel.sigma_hat * math.sqrt(sel.quad), truth),
            covers(orc.centre, t_orc * orc.sigma_hat * math.sqrt(orc.quad), truth),
        )
        assert covered == (rec.covered_selected, rec.covered_oracle), rec.rep_index
        counts += (
            1,
            *covered,
            covers(sel.centre, t_sel * orc.sigma_hat * math.sqrt(sel.quad), truth),
            covers(sel.centre, z * cfg.sigma * math.sqrt(sel.quad), truth),
        )
    assert tuple(counts.tolist()) == UNDERCOVERAGE_COUNTS[kind]


# --- criterion 3: randomized theorem sweep ---------------------------------

def _criterion_for(tag: str, n: int) -> Criterion:
    if tag == "aic":
        return Criterion.aic()
    if tag == "bic":
        return Criterion.bic()
    return Criterion.custom(float(tag))


def _theorem_sweep_block(start: int, count: int) -> tuple[int, int, int, int]:
    """Returns (instances, overfit_cases, condition_cases, violations)."""
    overfit = condition = violations = 0
    for i in range(start, start + count):
        rng = np.random.default_rng(900_000 + i)
        n = int(rng.integers(20, 201))
        p = int(rng.integers(4, 13))
        support = rng.choice(p, size=int(rng.integers(1, 4)), replace=False)
        beta = np.zeros(p)
        beta[support] = rng.uniform(0.5, 3.0, size=support.size) * rng.choice(
            [-1.0, 1.0], size=support.size
        )
        rho = float(rng.choice([0.0, 0.5]))
        data = random_centered_dataset(rng, n, p, beta=beta, rho=rho)
        crit = _criterion_for(
            str(rng.choice(["aic", "bic", "0.5", "5"])), n
        )
        s_star = Subset.of(support + 1)
        s_hat = select(data, crit).chosen
        if not s_star.is_strict_subset(s_hat):
            continue
        overfit += 1
        report = theorem_report(data, s_star, s_hat, crit)
        if report.condition_holds:
            condition += 1
            if not report.underestimates:
                violations += 1
    return count, overfit, condition, violations


def test_criterion_3_theorem_property_sweep():
    total = 10_000
    block = 250
    starts = list(range(0, total, block))
    with ProcessPoolExecutor(max_workers=_SWEEP_WORKERS) as pool:
        results = list(
            pool.map(_theorem_sweep_block, starts, [block] * len(starts))
        )
    instances = sum(r[0] for r in results)
    overfit = sum(r[1] for r in results)
    condition = sum(r[2] for r in results)
    violations = sum(r[3] for r in results)
    ok = instances >= 10_000 and violations == 0 and condition > 1000
    _report(
        3,
        ok,
        f"{instances} randomized instances; {overfit} strict overfits; "
        f"{condition} satisfied the condition; {violations} violations "
        f"of sigma_hat(selected) < sigma_hat(true)",
    )


# --- criterion 4: proof identities and the dual preference test ------------

def _identity_block(start: int, count: int) -> tuple[int, float, float, int, int]:
    """Returns (pairs, worst_sse_rel, worst_var_rel, ties, disagreements)."""
    worst_sse = worst_var = 0.0
    ties = disagreements = 0
    for i in range(start, start + count):
        rng = np.random.default_rng(400_000 + i)
        n = int(rng.integers(15, 80))
        p = int(rng.integers(3, 9))
        beta = np.zeros(p)
        beta[: min(2, p)] = rng.uniform(-2.0, 2.0, size=min(2, p))
        data = random_centered_dataset(rng, n, p, beta=beta)
        small_size = int(rng.integers(0, p - 1))
        small = Subset.of(rng.choice(p, size=small_size, replace=False) + 1)
        extras = [j for j in range(1, p + 1) if j not in small.indices]
        n_extra = int(rng.integers(1, len(extras) + 1))
        big = Subset.of(
            small.indices + tuple(rng.choice(extras, size=n_extra, replace=False))
        )
        crit = _criterion_for(str(rng.choice(["aic", "bic", "0.5", "5"])), n)

        report = theorem_report(data, small, big, crit)
        lhs = report.sse_hat
        rhs = (1.0 - report.r_n) * report.sse_star
        worst_sse = max(worst_sse, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        var_lhs = report.sigma_hat_selected**2
        var_rhs = (
            (n - small.size - 1)
            / (n - big.size - 1)
            * (1.0 - report.r_n)
            * report.sigma_hat_star**2
        )
        worst_var = max(worst_var, abs(var_lhs - var_rhs) / max(abs(var_lhs), 1e-300))

        check = preference_check(report, n, crit)
        if check.is_tie:
            ties += 1
        elif check.prefers_by_gamma != check.prefers_by_rn:
            disagreements += 1
    return count, worst_sse, worst_var, ties, disagreements


def test_criterion_4_proof_identities():
    total = 10_000
    block = 500
    starts = list(range(0, total, block))
    with ProcessPoolExecutor(max_workers=_SWEEP_WORKERS) as pool:
        results = list(pool.map(_identity_block, starts, [block] * len(starts)))
    pairs = sum(r[0] for r in results)
    worst_sse = max(r[1] for r in results)
    worst_var = max(r[2] for r in results)
    ties = sum(r[3] for r in results)
    disagreements = sum(r[4] for r in results)
    ok = (
        pairs >= 10_000
        and worst_sse <= 1e-10
        and worst_var <= 1e-10
        and disagreements == 0
    )
    _report(
        4,
        ok,
        f"{pairs} nested pairs; worst SSE identity rel err {worst_sse:.2e} <= 1e-10; "
        f"worst variance identity rel err {worst_var:.2e} <= 1e-10; "
        f"{disagreements} gamma-vs-r_n disagreements outside {ties} declared ties",
    )


# --- criterion 5: oracle equivalence ----------------------------------------

def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(123_456)
    worst_coef = 0.0
    for _ in range(500):
        n = int(rng.integers(8, 13))
        p = int(rng.integers(2, 6))
        data = random_centered_dataset(rng, n, p)
        k = int(rng.integers(0, min(4, p) + 1))
        s = Subset.of(rng.choice(p, size=k, replace=False) + 1)
        fit = ols_fit(data, s)
        beta_ne, _ = normal_equations_fit(data, s)
        if k:
            worst_coef = max(worst_coef, float(np.abs(fit.beta_hat - beta_ne).max()))

    select_mismatches = 0
    for i in range(200):
        rng_i = np.random.default_rng(777_000 + i)
        n = int(rng_i.integers(12, 40))
        p = int(rng_i.integers(3, 7))
        beta = np.zeros(p)
        beta[: min(2, p)] = rng_i.uniform(-2.0, 2.0, size=min(2, p))
        data = random_centered_dataset(rng_i, n, p, beta=beta)
        crit = _criterion_for(str(rng_i.choice(["aic", "bic", "5"])), n)
        chosen = select(data, crit).chosen
        bf_chosen, _ = brute_force_select(data, crit)
        select_mismatches += chosen != bf_chosen

    ok = worst_coef <= 1e-8 and select_mismatches == 0
    _report(
        5,
        ok,
        f"500 fits: worst |coef - normal equations| = {worst_coef:.2e} <= 1e-8; "
        f"200 selections: {select_mismatches} subset mismatches vs brute force",
    )


# --- criterion 6: special functions -----------------------------------------

def test_criterion_6_special_functions():
    worst_closed = 0.0
    for prob in (0.6, 0.75, 0.9, 0.975, 0.995, 0.2, 0.025):
        worst_closed = max(
            worst_closed,
            abs(student_t_quantile(1, prob) - cauchy_quantile(prob)),
            abs(student_t_quantile(2, prob) - t2_quantile(prob)),
        )

    worst_round_trip = 0.0
    probs = np.arange(0.005, 0.9951, 0.005)
    for df in (1, 2, 5, 46, 100):
        for prob in probs:
            q = student_t_quantile(df, float(prob))
            worst_round_trip = max(
                worst_round_trip, abs(student_t_cdf(df, q) - float(prob))
            )

    large_df_err = abs(student_t_quantile(10**6, 0.975) - 1.959964)

    ok = worst_closed <= 1e-6 and worst_round_trip <= 1e-10 and large_df_err <= 1e-3
    _report(
        6,
        ok,
        f"closed-form max err {worst_closed:.2e} <= 1e-6; "
        f"CDF(quantile) round-trip max err {worst_round_trip:.2e} <= 1e-10 "
        f"on df x prob grid; df=1e6 vs normal err {large_df_err:.2e} <= 1e-3",
    )


# --- criterion 7: determinism across worker counts ---------------------------

def test_criterion_7_worker_count_determinism(default_run):
    _, reference_records = default_run
    reference = records_csv_text(reference_records)
    texts = {}
    for workers in (1, 4, 8):
        _, records = run_once(ExperimentConfig(seed=ACCEPT_SEED, workers=workers))
        texts[workers] = records_csv_text(records)
    ok = all(text == reference for text in texts.values())
    _report(
        7,
        ok,
        "records.csv byte-identical across worker counts {1, 4, 8} "
        f"at seed {ACCEPT_SEED} ({len(reference.splitlines()) - 1} records)",
    )


# --- pinned records.csv digests ---------------------------------------------

# sim-ref and sim-narrow are benchmark workloads: their argv and digests live
# in bench/workloads.py, whose gates check them on every benchmark run, and
# are read from there so that each digest has one home.  No workload runs the
# configurations below, so their digests live here.
PINNED_RECORDS = {
    "bic": (
        "--criterion bic --seed 42 --reps 1000",
        "357d361740f13fdbcf4f402c9c8f60a4521c218dfdd12ab2690bdca8a92bae94",
    ),
    # AIC selects the empty model in some replications
    "weak-p3": (
        "--n 20 --p 3 --beta-star 0.4,0,0 --reps 35 --seed 0",
        "a7172154504dae74672f4791af8d93e3fe0b96380413fb4cd6de98bcbba2a7ab",
    ),
    # selected sizes 0 through 8 in the blocks
    "weak-p10": (
        "--seed 7 --beta-star 0.3,0.2,0.1,0,0,0,0,0,0,0 --reps 1000",
        "4d9190ef4b61f111c52e00f85f685c7680e4554e3ffcb34b1ee5f9878e5de4a0",
    ),
}


@pytest.mark.parametrize("name", [*PINNED_RECORDS, "sim-ref", "sim-narrow"])
def test_records_keep_their_pinned_digest(tmp_path, name):
    out = str(tmp_path / "out")
    if name in PINNED_RECORDS:
        flags, digest = PINNED_RECORDS[name]
        argv = ["simulate", *flags.split(), "--workers", "1", "--out-dir", out]
    else:
        argv = sim_argv(build_workloads()[name].spec, ANCHOR_SEED, out)
        digest = PINNED_RECORDS_SHA256[name]
    assert cli.main(argv) == 0
    assert hashlib.sha256(pathlib.Path(out, "records.csv").read_bytes()).hexdigest() == digest


# --- what the bits depend on: OpenBLAS's kernel -------------------------------

# digests of the seed-42 reference run's summary.json and ratio_hist.csv; its
# records.csv differs by kernel in the last bits of its float columns only
KERNEL_FREE_OUTPUTS = {
    "summary.json": "114ac1107410beb4f3e39f6dde4b2617186be332fdd227bab60dfbc86720dfbb",
    "ratio_hist.csv": "17decaa6e3bd972865b70276f599bf881c488af3c31a412faa59c6630ac5a1c6",
}
FLOAT_COLUMNS = (
    "sigma_hat_selected", "sigma_hat_oracle", "ratio", "ci_width_selected", "ci_width_oracle",
)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 OpenBLAS kernels"
)
def test_records_agree_under_every_blas_kernel(tmp_path, default_run):
    # OPENBLAS_CORETYPE gives one process the kernel another x86-64 CPU would get
    src = str(pathlib.Path(cli.__file__).parents[1])
    rows = {"default": list(csv.DictReader(io.StringIO(records_csv_text(default_run[1]))))}
    for kernel in ("Haswell", "Prescott", "Sandybridge"):
        out = tmp_path / kernel
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "postselect.cli", "simulate", "--seed", "42",
             "--reps", "1000", "--workers", "1", "--out-dir", str(out)],
            env=env, check=True, capture_output=True,
        )
        for name, digest in KERNEL_FREE_OUTPUTS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (kernel, name)
        with open(out / "records.csv", newline="") as f:
            rows[kernel] = list(csv.DictReader(f))
    first, *others = rows.values()
    for other in others:
        assert len(other) == len(first) == 1000
        for a, b in zip(first, other):
            for column in a:
                if column in FLOAT_COLUMNS:
                    assert float(a[column]) == pytest.approx(float(b[column]), rel=1e-14, abs=0)
                else:
                    assert a[column] == b[column], column
