import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from postselect import (
    Criterion,
    ExperimentConfig,
    RngStream,
    Subset,
    centered_dataset,
    generate_dataset,
    ols_fit,
    run_experiment,
    run_replication,
    theorem_report,
)
from postselect import simulation
from postselect.distributions import ar1_rows
from postselect.errors import DegenerateReplication, PostselectError
from postselect.simulation import generate_stack

from oracles import assert_records_match, brute_force_select, reference_records


def small_cfg(**overrides) -> ExperimentConfig:
    defaults = dict(reps=40, seed=7, workers=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def floored_at_7(**overrides) -> ExperimentConfig:
    """A config at the exact-fit threshold: replication 7 is the first whose
    full-model SSE is within rounding of zero (0.04 times the threshold), and
    replications 0-9 otherwise clear it by a factor of 17 or more."""
    return ExperimentConfig(n=3, p=1, beta_star=(1.0,), sigma=8e-15, seed=187, **overrides)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(code: str, *, path: str = "", **env_vars: str) -> str:
    """``code``'s stdout from a fresh interpreter that imports ``postselect``
    from ``src/`` (and modules from ``path``) with no BLAS thread count set
    but those in ``env_vars``, and warnings as errors, as in process."""
    src = str(pathlib.Path(simulation.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(
        env_vars, PYTHONPATH=os.pathsep.join(filter(None, [src, path])), PYTHONWARNINGS="error"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout


# replications per block in the tests that cut a run into blocks of their own
BLOCK = 32


def blocks_of(monkeypatch, cfg: ExperimentConfig, reps: int = BLOCK) -> ExperimentConfig:
    """``cfg``, which run_experiment now cuts into blocks of ``reps`` replications."""
    monkeypatch.setattr(simulation, "_BLOCK_FLOATS", reps * cfg.n * (cfg.p + 1))
    return cfg


# (field, value) pairs that ExperimentConfig refuses: floats and bools where
# an integer count or seed belongs
NON_INTEGER_CONFIGS = [
    ("seed", 2.9), ("seed", True), ("seed", 2.0), ("reps", 3.5), ("n", 50.5), ("p", 10.0),
    ("workers", True),
]


class TestExperimentConfig:
    def test_defaults_match_reference_study(self):
        cfg = ExperimentConfig()
        assert (cfg.n, cfg.p, cfg.sigma, cfg.rho) == (50, 10, 1.0, 0.5)
        assert cfg.s_star == Subset((1, 2, 3))
        assert cfg.beta_star[:3] == (1.0, 2.0, 3.0)
        assert cfg.reps == 1000 and cfg.alpha == 0.05
        assert cfg.criterion == Criterion.aic()

    def test_s_star_derived_from_support(self):
        cfg = ExperimentConfig(p=4, beta_star=(0.0, 2.0, 0.0, -1.0), n=20)
        assert cfg.s_star == Subset((2, 4))

    def test_s_star_is_not_an_argument(self):
        with pytest.raises(TypeError, match="s_star"):
            ExperimentConfig(p=4, n=20, beta_star=(1.0, 0.0, 0.0, 0.0), s_star=Subset((1,)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(p=10, beta_star=(1.0,))
        with pytest.raises(ValueError):
            ExperimentConfig(reps=0)
        for alpha in (1.5, 1e-17):
            with pytest.raises(ValueError, match="alpha"):
                ExperimentConfig(alpha=alpha)
        with pytest.raises(ValueError):
            ExperimentConfig(rho=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(rho=-1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(p=0)
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ExperimentConfig(sigma=sigma)
        with pytest.raises(ValueError):
            ExperimentConfig(beta_star=(1.0, math.nan) + (0.0,) * 8)
        with pytest.raises(ValueError):
            ExperimentConfig(workers=0)
        with pytest.raises(ValueError):
            ExperimentConfig(beta_star=(0.0,) * 10)
        with pytest.raises(ValueError):
            ExperimentConfig(n=10, p=10)

    @pytest.mark.parametrize(
        "field,value", NON_INTEGER_CONFIGS, ids=[f"{f}={v}" for f, v in NON_INTEGER_CONFIGS]
    )
    def test_non_integer_count_is_refused(self, field, value):
        # a float is not truncated and a bool is not read as 0 or 1: both are
        # refused with a ValueError that names the field
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ExperimentConfig(**{field: value})

    def test_numpy_integers_are_accepted(self):
        cfg = ExperimentConfig(n=np.int64(50), p=np.int32(10), reps=np.uint16(3), seed=np.uint64(7))
        assert (cfg.n, cfg.p, cfg.reps, cfg.seed) == (50, 10, 3, 7)
        workers = ExperimentConfig(workers=np.int64(2)).resolved_workers()
        assert workers == 2 and type(workers) is int

    def test_seed_and_substream_ranges(self):
        # replication r draws from substream r, and substreams stop at 2**32
        assert ExperimentConfig(reps=2**32).reps == 2**32
        with pytest.raises(ValueError, match=r"^substream must lie in \[0, 2\*\*32\), got 4294967296$"):
            ExperimentConfig(reps=2**32 + 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, got {seed}$"):
                ExperimentConfig(seed=seed)

    def test_validation_leaves_numpy_random_unimported(self):
        # a pool's parent only validates; importing numpy.random there costs it
        # about 5.6 MB of RSS that only the workers need
        code = (
            "import sys, postselect; postselect.ExperimentConfig(seed=7); "
            "print('numpy.random' in sys.modules)"
        )
        assert run_python(code).strip() == "False"

    def test_workers_resolution(self):
        assert ExperimentConfig(workers=3).resolved_workers() == 3
        auto = ExperimentConfig(workers="auto").resolved_workers()
        assert auto >= 1
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            assert auto == len(os.sched_getaffinity(0))


class TestGenerateDataset:
    def test_centering_invariant(self):
        cfg = ExperimentConfig()
        for sub in range(5):
            gen = generate_dataset(cfg, RngStream(cfg.seed, sub))
            assert abs(gen.data.y.mean()) < 1e-10
            assert np.abs(gen.data.X.mean(axis=0)).max() < 1e-10
            assert gen.query_x_raw.shape == (cfg.p,)

    def test_zero_noise_fits_truth_exactly(self):
        # noise below the rounding of the signal leaves y = X beta* exactly
        cfg = ExperimentConfig(sigma=1e-200)
        gen = generate_dataset(cfg, RngStream(3, 0))
        fit = ols_fit(gen.data, cfg.s_star)
        assert fit.sse < 1e-20

    def test_oracle_variance_estimator_unbiased(self):
        # mean over replications of sse/(n - |S*| - 1) should be near 1
        cfg = ExperimentConfig(seed=11)
        values = []
        for rep in range(1000):
            gen = generate_dataset(cfg, RngStream(cfg.seed, rep))
            fit = ols_fit(gen.data, cfg.s_star)
            values.append(fit.sse / fit.df)
        assert 0.94 <= np.mean(values) <= 1.06

    def test_stream_order_is_reproducible(self):
        cfg = ExperimentConfig()
        a = generate_dataset(cfg, RngStream(5, 2))
        b = generate_dataset(cfg, RngStream(5, 2))
        assert np.array_equal(a.data.y, b.data.y)
        assert np.array_equal(a.data.X, b.data.X)
        assert np.array_equal(a.query_x_raw, b.query_x_raw)


def three_call_dataset(cfg, rng):
    """One dataset drawn the one-stream way: design rows, noise and the query
    row each from their own call, each dataset centered on its own."""
    x_raw = ar1_rows(rng.standard_normal((cfg.n, cfg.p)), cfg.rho)
    y_raw = x_raw @ np.asarray(cfg.beta_star) + cfg.sigma * rng.standard_normal(cfg.n)
    data, _, col_means = centered_dataset(y_raw, x_raw)
    query = ar1_rows(rng.standard_normal((1, cfg.p)), cfg.rho)[0]
    return data, col_means, query


class TestGenerateStack:
    def test_one_draw_follows_the_three_call_stream_order(self):
        n, p = 50, 10
        one = RngStream(42, 3).standard_normal(n * p + n + p)
        rng = RngStream(42, 3)
        three = [rng.standard_normal((n, p)), rng.standard_normal(n), rng.standard_normal((1, p))]
        assert np.array_equal(one, np.concatenate([z.reshape(-1) for z in three]))

    @pytest.mark.parametrize("block", [1, 13, 16])
    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(seed=42),
            # coefficients whose products round, so a matvec summed in another
            # order shows in the last bits
            ExperimentConfig(beta_star=(0.3, -1.7, 2.9, 0.0, 0.11, 0.0, 0.0, 0.5, 0.0, 1.3)),
            ExperimentConfig(n=50, p=4, beta_star=(1.0, 2.0, 0.0, 0.0), sigma=2.5, rho=-0.3),
            ExperimentConfig(n=12, p=1, beta_star=(3.0,), seed=7),
        ],
    )
    def test_stack_rows_equal_one_stream_datasets(self, cfg, block):
        start = 5
        data, query = generate_stack(cfg, range(start, start + block))
        assert data.shape == (block, cfg.n, cfg.p + 1) and query.shape == (block, cfg.p)
        X, y = data[:, :, :-1], data[:, :, -1]
        for b in range(block):
            single = generate_dataset(cfg, RngStream(cfg.seed, start + b))
            data, col_means, query_raw = three_call_dataset(cfg, RngStream(cfg.seed, start + b))
            assert np.array_equal(single.data.y, data.y) and np.array_equal(y[b], data.y)
            assert np.array_equal(single.data.X, data.X) and np.array_equal(X[b], data.X)
            assert np.array_equal(single.raw_column_means, col_means)
            assert np.array_equal(single.query_x_raw, query_raw)
            assert np.array_equal(query[b], query_raw - col_means)

    def test_data_are_checked_at_their_raw_scale(self):
        # at n = 3 a replication's centered values can be far smaller than its
        # raw ones (replication 17 here), so a centering check at the centered
        # scale would reject valid data
        cfg = ExperimentConfig(n=3, p=1, beta_star=(1.0,), seed=2)
        data, _ = generate_stack(cfg, range(32))
        single = generate_dataset(cfg, RngStream(cfg.seed, 17)).data
        assert np.array_equal(data[17], np.column_stack([single.X, single.y]))

    def test_out_of_range_data_names_its_replication(self):
        cfg = ExperimentConfig(sigma=1e200)
        message = "^replication 3: centered y and X must not exceed"
        with pytest.raises(ValueError, match=message):
            generate_stack(cfg, [3, 4])
        with pytest.raises(ValueError, match=message):
            generate_dataset(cfg, RngStream(cfg.seed, 3))
        with pytest.raises(ValueError, match="^replication 0: centered y and X"):
            run_experiment(small_cfg(sigma=1e200, reps=2))


class TestRunReplication:
    def test_record_internal_consistency(self):
        cfg = ExperimentConfig(seed=99)
        for rep in range(25):
            rec = run_replication(cfg, rep)
            assert rec.rep_index == rep
            assert rec.ratio == pytest.approx(
                rec.sigma_hat_oracle / rec.sigma_hat_selected, rel=1e-15
            )
            if rec.exact:
                assert rec.contains_star and not rec.strict_overfit
                assert rec.ratio == pytest.approx(1.0, abs=1e-12)
                assert rec.ci_width_selected == pytest.approx(
                    rec.ci_width_oracle, abs=1e-12
                )
            if rec.strict_overfit and rec.condition_holds:
                assert rec.ratio > 1.0

    def test_reference_configuration_contains_truth(self):
        cfg = ExperimentConfig(seed=123)
        contained = sum(run_replication(cfg, rep).contains_star for rep in range(100))
        assert contained >= 99

    def test_strong_signal_mostly_exact_and_matches_brute_force(self):
        # a spurious variable's relative SSE gain is scale-free, so a huge
        # signal alone does not stop mild penalties from overfitting; a
        # strict penalty plus strong signal pins the true subset
        beta = tuple(x * 100.0 for x in (1.0, 2.0, 3.0)) + (0.0,) * 7
        cfg = ExperimentConfig(beta_star=beta, seed=5, criterion=Criterion.custom(12.0))
        exact = 0
        contains = 0
        reps = 100
        for rep in range(reps):
            rec = run_replication(cfg, rep)
            exact += rec.exact
            contains += rec.contains_star
            if rep < 20:  # spot-check the selector against the oracle path
                gen = generate_dataset(cfg, RngStream(cfg.seed, rep))
                bf_chosen, _ = brute_force_select(gen.data, cfg.criterion)
                assert rec.s_hat == bf_chosen
        assert exact >= 0.95 * reps
        assert contains == reps

    def test_condition_matches_theorem_report_on_strict_overfits(self):
        # the record takes the condition from the sizes alone; the full
        # report on the regenerated data must agree on every strict overfit
        cfg = ExperimentConfig(seed=42)
        checked = 0
        for rep in range(50):
            rec = run_replication(cfg, rep)
            if not rec.strict_overfit:
                continue
            data = generate_dataset(cfg, RngStream(cfg.seed, rep)).data
            report = theorem_report(data, cfg.s_star, rec.s_hat, cfg.criterion)
            assert rec.condition_holds == report.condition_holds
            checked += 1
        assert checked >= 20

    def test_high_snr_replication_returns_a_record(self):
        # at sigma=1e-7 the SSEs of the true supersets are about 5e-13; they
        # must not count as exact fits, which would degenerate the run
        beta = tuple(10.0 * b for b in (1.0, 2.0, 3.0)) + (0.0,) * 7
        cfg = ExperimentConfig(beta_star=beta, sigma=1e-7, seed=42)
        for rep in range(5):
            rec = run_replication(cfg, rep)
            assert rec.contains_star
            assert rec.sigma_hat_oracle == pytest.approx(1e-7, rel=0.5)

    def test_sigma_zero_aborts(self):
        # a noiseless model has no variance to estimate: the config is
        # rejected before any replication runs
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            ExperimentConfig(sigma=0.0)


class TestRunExperiment:
    def test_records_ordered_and_summary_consistent(self):
        summary, records = run_experiment(small_cfg())
        assert [r.rep_index for r in records] == list(range(40))
        assert summary.reps == 40
        rates = {
            "coverage_selected": np.mean([r.covered_selected for r in records]),
            "coverage_oracle": np.mean([r.covered_oracle for r in records]),
            "containment_rate": np.mean([r.contains_star for r in records]),
            "exact_rate": np.mean([r.exact for r in records]),
            "strict_overfit_rate": np.mean([r.strict_overfit for r in records]),
            "condition_rate": np.mean([r.condition_holds for r in records]),
        }
        for name, value in rates.items():
            assert getattr(summary, name) == pytest.approx(value, abs=1e-15)
            assert 0.0 <= value <= 1.0
            assert summary.standard_errors[name] == pytest.approx(
                math.sqrt(value * (1.0 - value) / 40), abs=1e-15
            )
        overfit = [r.ratio for r in records if r.strict_overfit]
        if overfit:
            assert summary.mean_ratio_overfit == pytest.approx(np.mean(overfit))
            if all(r.condition_holds for r in records if r.strict_overfit):
                assert summary.mean_ratio_overfit >= 1.0
        assert summary.rng_algorithm == "philox4x64"
        assert summary.seed == 7

    def test_single_replication(self):
        summary, records = run_experiment(small_cfg(reps=1))
        assert len(records) == 1
        for name in ("coverage_selected", "coverage_oracle", "containment_rate"):
            assert getattr(summary, name) in (0.0, 1.0)

    def test_same_seed_reproduces_records(self):
        _, records_a = run_experiment(small_cfg())
        _, records_b = run_experiment(small_cfg())
        assert records_a == records_b

    def test_records_do_not_depend_on_the_data_scale(self):
        # the reference study at sigma = 1e-155: its SSEs are subnormal, about
        # 1e-310, but small only next to 1, not next to ||y||: no subset is an exact fit
        tiny = (1e-155, 2e-155, 3e-155) + (0.0,) * 7
        (base, base_records), (scaled, scaled_records) = (
            run_experiment(ExperimentConfig(seed=42, workers=1, **scale))
            for scale in ({}, dict(sigma=1e-155, beta_star=tiny))
        )
        integer = ("rep_index", "s_hat", "contains_star", "strict_overfit", "exact",
                   "covered_selected", "covered_oracle", "condition_holds")
        for a, b in zip(base_records, scaled_records, strict=True):
            assert [getattr(a, f) for f in integer] == [getattr(b, f) for f in integer]
            assert b.ratio == pytest.approx(a.ratio, rel=1e-12)
        # summary.json's keys: all equal but the mean ratio, which agrees within 1e-12
        rest = [
            dataclasses.replace(s, runtime_seconds=0.0, mean_ratio_overfit=None)
            for s in (base, scaled)
        ]
        assert rest[0] == rest[1]
        assert scaled.mean_ratio_overfit == pytest.approx(base.mean_ratio_overfit, rel=1e-12)

    def test_worker_count_does_not_change_records(self, monkeypatch):
        blocks_of(monkeypatch, small_cfg(), 8)  # five blocks, so that a pool of four runs
        _, serial = run_experiment(small_cfg(workers=1))
        _, parallel = run_experiment(small_cfg(workers=4))
        assert serial == parallel

    @pytest.mark.parametrize(
        "workers, overrides, block, full_model_picks",
        [
            (workers, overrides, block, picks)
            for overrides, block, picks in [
                (dict(reps=2 * BLOCK + 3), BLOCK, 0),
                # the benchmark's p = 4 run in blocks of the default budget,
                # 262 replications; its full-model picks show an interval's
                # dot product taken at a stride
                (dict(p=4, beta_star=(1.0, 2.0, 0.0, 0.0), seed=42, reps=300), None, 13),
            ]
            for workers in (1, 2)
        ],
        ids=["1", "2", "narrow-1", "narrow-2"],
    )
    def test_records_do_not_depend_on_blocks(
        self, monkeypatch, workers, overrides, block, full_model_picks
    ):
        # a partial last block, and blocks split between two processes, give
        # the records of one-replication blocks
        cfg = small_cfg(workers=workers, **overrides)
        if block:
            blocks_of(monkeypatch, cfg, block)
        size = max(1, simulation._BLOCK_FLOATS // (cfg.n * (cfg.p + 1)))
        assert cfg.reps > size and cfg.reps % size  # two blocks or more, the last partial
        _, records = run_experiment(cfg)
        assert records == [run_replication(cfg, i) for i in range(cfg.reps)]
        assert sum(r.s_hat.size == cfg.p for r in records) == full_model_picks

    @pytest.mark.parametrize("seed", [2**32 + 5, 2**64 - 1])
    def test_two_word_seeds_match_the_reference_oracle(self, monkeypatch, seed):
        # seeds of two entropy words, over three blocks, against numpy's own
        # SeedSequence streams
        cfg = ExperimentConfig(
            p=4, beta_star=(1.0, 2.0, 0.0, 0.0), seed=seed, reps=2 * BLOCK + 5, workers=1
        )
        blocks_of(monkeypatch, cfg)
        assert_records_match(run_experiment(cfg)[1], reference_records(cfg, cfg.reps))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_weak_signal_run_records_the_empty_model(self, monkeypatch, workers):
        # AIC selects the empty model in some replications, the first
        # mid-block; its interval is [0, 0], which misses a nonzero truth
        cfg = ExperimentConfig(
            n=20, p=3, beta_star=(0.4, 0.0, 0.0), reps=2 * BLOCK + 3, seed=0, workers=workers
        )
        blocks_of(monkeypatch, cfg)
        _, records = run_experiment(cfg)
        assert records == [run_replication(cfg, i) for i in range(cfg.reps)]
        empty = [r for r in records if r.s_hat == Subset()]
        assert empty[0].rep_index == 7
        for r in empty:
            assert r.ci_width_selected == 0.0 and not r.covered_selected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_inside_a_block_names_its_replication(self, monkeypatch, workers):
        # some replications reach the SSE floor; the first of them is not the
        # first of its block
        cfg = blocks_of(monkeypatch, floored_at_7(reps=2 * BLOCK + 3, workers=workers))
        failed = []
        for i in range(cfg.reps):
            try:
                run_replication(cfg, i)
            except DegenerateReplication:
                failed.append(i)
        assert failed[0] == 7 and 7 % BLOCK != 0
        with pytest.raises(DegenerateReplication, match="^replication 7: 1 subsets hit the SSE floor"):
            run_experiment(cfg)

    def test_failed_stacked_fit_keeps_the_replication_order(self, monkeypatch):
        # the block's stacked S* fit fails for replication 9; replication 7
        # fails first when replications run one at a time, so its error wins
        cfg = blocks_of(monkeypatch, floored_at_7(reps=BLOCK, workers=1))
        bad_y = generate_dataset(cfg, RngStream(cfg.seed, 9)).data.y
        fit_stack = simulation.ols_fit_stack

        def fit_stack_failing_at_9(data, rows, positions):
            fit = fit_stack(data, rows, positions)
            return fit._replace(collinear=fit.collinear | (data[rows, :, -1] == bad_y).all(axis=1))

        monkeypatch.setattr(simulation, "ols_fit_stack", fit_stack_failing_at_9)
        with pytest.raises(DegenerateReplication, match="^replication 7: 1 subsets hit the SSE floor"):
            run_experiment(cfg)
        with pytest.raises(PostselectError, match="^replication 9: columns of subset"):
            run_replication(cfg, 9)
        assert run_replication(cfg, 8).rep_index == 8

    @pytest.mark.parametrize(
        "failing, message",
        [
            # replication 3's selected fit fails before replication 20's S* fit
            ({"selected": 3, "star": 20}, r"^replication 3: columns of subset \{1,2,3,5\}"),
            # both of replication 3's fits fail: the S* fit is reported
            ({"selected": 3, "star": 3}, r"^replication 3: columns of subset \{1,2,3\} "),
        ],
    )
    def test_first_failing_fit_names_its_subset(self, monkeypatch, failing, message):
        cfg = blocks_of(monkeypatch, small_cfg(reps=BLOCK))
        bad_y = {
            kind: generate_dataset(cfg, RngStream(cfg.seed, i)).data.y
            for kind, i in failing.items()
        }
        fit_stack = simulation.ols_fit_stack

        def fit_stack_failing(data, rows, positions):
            # a call mixes S* and selected fits of one size: each row is told
            # by its own columns, so a selected S* counts as S*
            fit = fit_stack(data, rows, positions)
            subsets = [Subset.of(row + 1) for row in positions]
            bad = np.array([bad_y["star" if s == cfg.s_star else "selected"] for s in subsets])
            return fit._replace(collinear=fit.collinear | (data[rows, :, -1] == bad).all(axis=1))

        monkeypatch.setattr(simulation, "ols_fit_stack", fit_stack_failing)
        with pytest.raises(PostselectError, match=message):
            run_experiment(cfg)

    def test_a_block_fits_each_model_size_once(self, monkeypatch):
        # the reference block's 2b models, its selected subsets and S*, go
        # through one fit and one interval call per size
        cfg, calls = small_cfg(seed=42, reps=100), {"fit": [], "interval": []}
        fit_stack, interval_stack = simulation.ols_fit_stack, simulation.interval_stack

        def counted_fit(data, rows, positions):
            calls["fit"].append(positions.shape[1])
            return fit_stack(data, rows, positions)

        def counted_interval(xs, *args):
            calls["interval"].append(xs.shape[1])
            return interval_stack(xs, *args)

        monkeypatch.setattr(simulation, "ols_fit_stack", counted_fit)
        monkeypatch.setattr(simulation, "interval_stack", counted_interval)
        size = simulation._BLOCK_FLOATS // (cfg.n * (cfg.p + 1))
        records = simulation._replication_block(cfg, 0, size)
        sizes = sorted({r.s_hat.size for r in records} | {cfg.s_star.size})
        assert len({r.s_hat for r in records}) > len(sizes) > 1
        assert calls == {"fit": sizes, "interval": sizes}
        assert records == [run_replication(cfg, i) for i in range(size)]

    def test_data_over_the_budget_run_one_replication_per_block(self, monkeypatch):
        cfg = small_cfg(n=14_000, p=4, beta_star=(1.0, 2.0, 0.0, 0.0), reps=3)
        assert cfg.n * (cfg.p + 1) > simulation._BLOCK_FLOATS
        block, sizes = simulation._replication_block, []

        def counted_block(cfg, start, stop):
            sizes.append(stop - start)
            return block(cfg, start, stop)

        monkeypatch.setattr(simulation, "_replication_block", counted_block)
        _, records = run_experiment(cfg)
        assert sizes == [1, 1, 1]
        assert records == [run_replication(cfg, i) for i in range(cfg.reps)]

    def test_block_memory_does_not_grow_with_n(self):
        # a block holds about _BLOCK_FLOATS floats of data, here one
        # replication of 0.9 MiB; one block of all 8 would peak near 28 MiB
        cfg = small_cfg(n=20_000, p=5, beta_star=(1.0, 2.0, 0.0, 0.0, 0.0), reps=8)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, peak

    @pytest.mark.parametrize(
        "overrides", [{}, dict(p=4, beta_star=(1.0, 2.0, 0.0, 0.0))], ids=["ref", "narrow"]
    )
    def test_block_working_memory_is_at_most_four_times_its_data(self, overrides):
        # a default-budget block keeps one copy of its data, [X | y], so that
        # the draws, the search and the fits never hold three more
        cfg = small_cfg(seed=42, **overrides)
        size = simulation._BLOCK_FLOATS // (cfg.n * (cfg.p + 1))
        simulation._replication_block(cfg, 0, 1)  # the lazy imports and caches are not the block's
        tracemalloc.start()
        try:
            simulation._replication_block(cfg, 0, size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * size * cfg.n * (cfg.p + 1) * 8, peak

    def test_a_pool_is_never_wider_than_its_blocks(self, monkeypatch):
        # one block runs in process, and a pool starts no worker without a block
        widths = []

        class Spy(ProcessPoolExecutor):
            def __init__(self, max_workers, **placement):
                widths.append(max_workers)
                super().__init__(max_workers, **placement)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", Spy)
        _, one_block = run_experiment(small_cfg(workers=8))
        assert widths == []
        blocks_of(monkeypatch, small_cfg(), 16)
        _, three_blocks = run_experiment(small_cfg(workers=8))
        assert widths == [3] and three_blocks == one_block

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_each_pool_worker_starts_on_its_own_cpu(self, monkeypatch):
        # worker i moves to the i-th allowed CPU, mod their count, and then may
        # run on all of them again; the initializers run here, in process
        calls = []

        class InProcess:
            def __init__(self, max_workers, initializer, initargs):
                for _ in range(max_workers):
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            map = staticmethod(map)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InProcess)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 2})
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(set(cpus)))
        _, one_block = run_experiment(small_cfg())
        blocks_of(monkeypatch, small_cfg(), 16)
        _, three_blocks = run_experiment(small_cfg(workers=8))
        assert calls == [{2}, {2, 5}, {5}, {2, 5}, {2}, {2, 5}]
        assert three_blocks == one_block

    def test_a_pool_starts_bare_where_the_os_cannot_place_workers(self, monkeypatch):
        placements = []

        class Spy(ProcessPoolExecutor):
            def __init__(self, max_workers, **placement):
                placements.append(placement)
                super().__init__(max_workers, **placement)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", Spy)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        blocks_of(monkeypatch, small_cfg(), 16)
        _, records = run_experiment(small_cfg(workers=2))
        assert placements == [{}] and records == run_experiment(small_cfg())[1]

    def test_different_seeds_differ(self):
        _, a = run_experiment(small_cfg(seed=1, reps=5))
        _, b = run_experiment(small_cfg(seed=2, reps=5))
        assert a != b

    def test_degenerate_config_propagates(self):
        with pytest.raises(DegenerateReplication):
            run_experiment(floored_at_7(reps=8, workers=1))


class TestSummarize:
    def test_empty_overfit_set_gives_none(self):
        cfg = ExperimentConfig(
            p=3,
            n=30,
            beta_star=(100.0, 200.0, 300.0),
            criterion=Criterion.bic(),
            reps=5,
            seed=2,
            workers=1,
        )
        summary, records = run_experiment(cfg)
        if not any(r.strict_overfit for r in records):
            assert summary.mean_ratio_overfit is None
        else:  # all three variables always enter; overfit impossible at p=3
            pytest.fail("full-support model cannot strictly overfit")

    def test_no_records_is_a_bad_argument(self):
        with pytest.raises(ValueError, match="at least one record"):
            simulation.summarize([], 0.0, 0)


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy too old for mode="dicts"
        return False
    return "openblas" in str(blas.get("name", "")).lower()


TASKS = "len(os.listdir('/proc/self/task'))"

needs_openblas = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not _numpy_uses_openblas(),
    reason="counts OpenBLAS's threads in /proc/self/task",
)


@needs_openblas
class TestBlasThreads:
    def test_first_import_loads_one_thread_and_restores_the_environment(self):
        code = f"import os, postselect; print({TASKS}, 'OPENBLAS_NUM_THREADS' in os.environ)"
        assert run_python(code).split() == ["1", "False"]

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_users_thread_count_is_kept(self, var):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("OpenBLAS starts no more threads than there are cores")
        code = f"import os, postselect; print({TASKS}, os.environ[{var!r}])"
        assert run_python(code, **{var: "2"}).split() == ["2", "2"]

    def test_numpy_imported_first_keeps_its_threads(self):
        own = run_python(f"import os, numpy; print({TASKS})")
        code = f"import os, numpy, postselect; print({TASKS}, 'OPENBLAS_NUM_THREADS' in os.environ)"
        assert run_python(code).split() == [own.strip(), "False"]

    def test_pool_workers_run_one_thread(self, tmp_path):
        # every block, run in a worker, prints its process's task count in one
        # write, so that the two workers' lines never interleave, not even with
        # PYTHONUNBUFFERED set
        (tmp_path / "probe.py").write_text(
            "import os\n"
            "from postselect import simulation\n"
            "block = simulation._replication_block\n"
            "def counted(*args):\n"
            f"    os.write(1, b'%d\\n' % {TASKS})\n"
            "    return block(*args)\n"
        )
        code = (
            "import postselect, probe\n"
            "from postselect import simulation\n"
            "simulation._replication_block = probe.counted\n"
            "simulation._BLOCK_FLOATS = 5 * 50 * 11\n"
            "simulation.run_experiment(postselect.ExperimentConfig(reps=40, workers=2))\n"
        )
        assert run_python(code, path=str(tmp_path)).split() == ["1"] * 8


def _outputs_at_one_and_two_blas_threads(tmp_path, flags: str) -> list:
    """The bytes of the three files ``simulate`` writes, at one and at two BLAS threads."""
    outputs = []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / str(len(outputs))
        argv = ["simulate", *flags.split(), "--workers", "1", "--out-dir", str(out)]
        run_python(f"import sys; from postselect.cli import main; sys.exit(main({argv!r}))", **env)
        names = ("summary.json", "records.csv", "ratio_hist.csv")
        outputs.append([(out / name).read_bytes() for name in names])
    return outputs


def test_records_do_not_depend_on_the_blas_thread_count(tmp_path):
    one, two = _outputs_at_one_and_two_blas_threads(tmp_path, "--seed 42 --reps 1000")
    assert one == two


def test_records_up_to_n_10000_do_not_depend_on_the_blas_thread_count(tmp_path):
    # from n = 10001 on, OpenBLAS splits a dot product of more than 10000 terms
    # across its threads, which reorders the sum: at n = 10001 these flags give
    # records whose last digits follow the thread count
    flags = "--n 10000 --p 4 --beta-star 1,2,0,0 --reps 3 --seed 42"
    one, two = _outputs_at_one_and_two_blas_threads(tmp_path, flags)
    assert one == two
