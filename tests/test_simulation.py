import math

import numpy as np
import pytest

from postselect import (
    Criterion,
    ExperimentConfig,
    RngStream,
    Subset,
    generate_dataset,
    ols_fit,
    run_experiment,
    run_replication,
    theorem_report,
)
from postselect import simulation
from postselect.errors import DegenerateReplication, PostselectError

from oracles import brute_force_select


def small_cfg(**overrides) -> ExperimentConfig:
    defaults = dict(reps=40, seed=7, workers=1)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


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

    def test_s_star_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            ExperimentConfig(
                p=4, n=20, beta_star=(1.0, 0.0, 0.0, 0.0), s_star=Subset((2,))
            )

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

    def test_workers_resolution(self):
        assert ExperimentConfig(workers=3).resolved_workers() == 3
        assert ExperimentConfig(workers="auto").resolved_workers() >= 1


class TestGenerateDataset:
    def test_centering_invariant(self):
        cfg = ExperimentConfig()
        for sub in range(5):
            gen = generate_dataset(cfg, RngStream(cfg.seed, sub))
            assert abs(gen.data.y.mean()) < 1e-10
            assert np.abs(gen.data.X.mean(axis=0)).max() < 1e-10
            assert gen.query_x_raw.shape == (cfg.p,)

    def test_zero_noise_fits_truth_exactly(self):
        cfg = ExperimentConfig(sigma=0.0)
        gen = generate_dataset(cfg, RngStream(3, 0))
        fit = ols_fit(gen.data, cfg.s_star)
        assert fit.sse < 1e-20

    def test_oracle_variance_estimator_unbiased(self):
        # mean over replications of sse/(n - |S*| - 1) should be near 1
        cfg = ExperimentConfig(seed=11)
        values = []
        for rep in range(1000):
            gen = generate_dataset(cfg, RngStream(cfg.seed, rep))
            values.append(ols_fit(gen.data, cfg.s_star).sigma_hat_sq)
        assert 0.94 <= np.mean(values) <= 1.06

    def test_stream_order_is_reproducible(self):
        cfg = ExperimentConfig()
        a = generate_dataset(cfg, RngStream(5, 2))
        b = generate_dataset(cfg, RngStream(5, 2))
        assert np.array_equal(a.data.y, b.data.y)
        assert np.array_equal(a.data.X, b.data.X)
        assert np.array_equal(a.query_x_raw, b.query_x_raw)


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
        # must stay above the log floor instead of degenerating the run
        beta = tuple(10.0 * b for b in (1.0, 2.0, 3.0)) + (0.0,) * 7
        cfg = ExperimentConfig(beta_star=beta, sigma=1e-7, seed=42)
        for rep in range(5):
            rec = run_replication(cfg, rep)
            assert rec.contains_star
            assert rec.sigma_hat_oracle == pytest.approx(1e-7, rel=0.5)

    def test_sigma_zero_aborts(self):
        cfg = ExperimentConfig(sigma=0.0)
        with pytest.raises(DegenerateReplication, match="replication 3"):
            run_replication(cfg, 3)


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

    def test_worker_count_does_not_change_records(self):
        _, serial = run_experiment(small_cfg(workers=1))
        _, parallel = run_experiment(small_cfg(workers=4))
        assert serial == parallel

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_do_not_depend_on_blocks(self, workers):
        # a partial last block, and blocks split between two processes, give
        # the records of one-replication blocks
        cfg = small_cfg(reps=2 * simulation._BLOCK_REPS + 3, workers=workers)
        _, records = run_experiment(cfg)
        assert records == [run_replication(cfg, i) for i in range(cfg.reps)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_inside_a_block_names_its_replication(self, workers):
        # a weak signal selects the empty model, which has no interval, in
        # some replications; the first of them is not the first of its block
        cfg = ExperimentConfig(
            n=20,
            p=3,
            beta_star=(0.4, 0.0, 0.0),
            reps=2 * simulation._BLOCK_REPS + 3,
            seed=0,
            workers=workers,
        )
        failed = []
        for i in range(cfg.reps):
            try:
                run_replication(cfg, i)
            except PostselectError:
                failed.append(i)
        assert failed[0] == 7 and 7 % simulation._BLOCK_REPS != 0
        with pytest.raises(PostselectError, match="^replication 7: the empty model"):
            run_experiment(cfg)

    def test_different_seeds_differ(self):
        _, a = run_experiment(small_cfg(seed=1, reps=5))
        _, b = run_experiment(small_cfg(seed=2, reps=5))
        assert a != b

    def test_degenerate_config_propagates(self):
        with pytest.raises(DegenerateReplication):
            run_experiment(small_cfg(sigma=0.0, reps=3))


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
