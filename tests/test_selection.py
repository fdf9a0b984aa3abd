import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    Criterion,
    Dataset,
    Subset,
    centered_dataset,
    ols_fit,
    overfit_condition,
    select,
    select_stack,
    theorem_report,
)
from postselect import selection
from postselect.errors import PostselectError
from postselect.selection import SSE_FLOOR

from oracles import (
    ar1_rows_cholesky,
    brute_force_select,
    preference_check,
    random_centered_dataset,
)

AIC = Criterion.aic()
BIC = Criterion.bic()


class TestCriterion:
    def test_penalties(self):
        assert AIC.c_n(50) == 2.0
        assert BIC.c_n(50) == pytest.approx(math.log(50))
        assert Criterion.custom(0.5).c_n(50) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Criterion("aicc")
        with pytest.raises(ValueError):
            Criterion.custom(-1.0)
        with pytest.raises(ValueError):
            Criterion("aic", custom_value=3.0)
        for c_n in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Criterion.custom(c_n)
        with pytest.raises(ValueError, match="sample size"):
            BIC.c_n(0)


def _orthogonal_dataset(n: int, p: int, sse: float, seed: int = 0) -> Dataset:
    """Centered data whose response is orthogonal to every column, so every
    subset S has ``SSE(S) = ||y||^2 = sse`` and scores ``n log sse + c_n |S|``."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    x -= x.mean(axis=0)
    y = rng.standard_normal(n)
    y -= y.mean()
    q, _ = np.linalg.qr(x)
    y -= q @ (q.T @ y)
    return Dataset(y=y * (math.sqrt(sse) / np.linalg.norm(y)), X=x)


class TestGamma:
    """The score ``n log(max(SSE, floor)) + c_n |S|``, read from select's array."""

    def test_unit_sse_counts_only_penalty(self):
        scores = select(_orthogonal_dataset(50, 3, 1.0), AIC).scores
        sizes = [bin(mask).count("1") for mask in range(8)]
        assert scores == pytest.approx([2.0 * size for size in sizes], abs=1e-12)

    def test_euler_sse_adds_n(self):
        scores = select(_orthogonal_dataset(50, 3, math.e), AIC).scores
        assert scores[0b111] == pytest.approx(56.0, abs=1e-10)

    def test_bic_penalty(self):
        scores = select(_orthogonal_dataset(50, 3, 1.0), BIC).scores
        assert scores[0b111] == pytest.approx(3 * math.log(50), abs=1e-10)

    def test_nonpositive_sse(self, rng):
        # y = x1 exactly: every subset holding column 1 has a zero SSE, which
        # scores at the floor instead of as log(0) = -inf
        x = rng.standard_normal((30, 3))
        x -= x.mean(axis=0)
        result = select(Dataset(y=x[:, 0], X=x), AIC)
        assert result.truncated_sse_count == 4
        for mask in (0b001, 0b011, 0b101, 0b111):
            expected = 30 * math.log(SSE_FLOOR) + 2.0 * bin(mask).count("1")
            assert result.scores[mask] == pytest.approx(expected, rel=1e-15)
        assert np.all(np.isfinite(result.scores))

    def test_tiny_sse_clamped_to_floor(self):
        # SSE = 1e-310 > 0 below the floor scores exactly as a zero SSE does
        data = _orthogonal_dataset(50, 3, 1e-310)
        tiny = select(data, AIC)
        floor = select(Dataset(y=np.zeros(50), X=data.X), AIC)
        assert tiny.truncated_sse_count == floor.truncated_sse_count == 8
        assert np.array_equal(tiny.scores, floor.scores)

    @settings(max_examples=50, deadline=None)
    @given(
        sse=st.floats(1e-6, 1e6),
        n=st.integers(15, 500),
        cn=st.floats(0.01, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_strictly_increasing_in_size_and_sse(self, sse, n, cn, seed):
        p = 4
        crit = Criterion.custom(cn)
        scores = select(_orthogonal_dataset(n, p, sse, seed), crit).scores
        larger = select(_orthogonal_dataset(n, p, sse * 1.01, seed), crit).scores
        assert np.all(larger > scores)
        for mask in range(1 << p):
            for bit in range(p):
                if not mask >> bit & 1:
                    assert scores[mask | 1 << bit] > scores[mask]


class TestLatticeSse:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reduced_sse_matches_direct_fit(self, seed):
        # SSE(S) = sse_full + ||u - P_S u||^2, read from the reduction of
        # [X | y] to p dimensions, is the SSE of a direct fit of S
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 18, 5)
        sse = selection._lattice_sse([data], 5)[0]
        for s in [Subset(), Subset((2,)), Subset((1, 4)), Subset((1, 2, 3, 4, 5))]:
            mask = sum(1 << int(i) for i in s.positions)
            assert sse[mask] == pytest.approx(ols_fit(data, s).sse, rel=1e-10)


class TestSelect:
    def test_zero_response_selects_empty_subset(self, rng):
        x = rng.standard_normal((12, 4))
        data = Dataset(y=np.zeros(12), X=x - x.mean(axis=0))
        result = select(data, AIC)
        assert result.chosen == Subset()
        assert result.truncated_sse_count == 2**4
        assert result.ties == (Subset(),)

    def test_all_gammas_tie_under_zero_penalty_and_zero_response(self, rng):
        # every subset hits the SSE floor and the penalty is zero, so the
        # tie-break must order all 2^p subsets by size then index list
        x = rng.standard_normal((12, 3))
        data = Dataset(y=np.zeros(12), X=x - x.mean(axis=0))
        result = select(data, Criterion.custom(0.0))
        assert result.chosen == Subset()
        assert len(result.ties) == 8
        assert result.ties[:4] == (Subset(), Subset((1,)), Subset((2,)), Subset((3,)))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        beta = np.array([1.5, -1.0, 0.0, 0.0])
        data = random_centered_dataset(rng, 12, 4, beta=beta)
        crit = [AIC, BIC, Criterion.custom(0.7)][seed % 3]
        result = select(data, crit)
        bf_chosen, bf_table = brute_force_select(data, crit)
        assert result.chosen == bf_chosen
        assert set(result.gamma_values) == set(bf_table)
        for s, g in bf_table.items():
            assert result.gamma_values[s] == pytest.approx(g, rel=1e-10)
        bf_ranked = sorted(bf_table, key=lambda s: (bf_table[s], s.size, s.indices))
        assert [s for s, _ in result.ranked(5)] == bf_ranked[:5]

    @pytest.mark.parametrize("sigma", [1.0, 1e-4, 1e-6, 1e-8])
    def test_high_snr_sse_matches_lstsq(self, sigma):
        # each SSE is read from a residual, not as ||y||^2 - ||proj||^2, so
        # it keeps its digits when the noise is tiny next to the signal
        rng = np.random.default_rng(2024)
        beta = 10.0 * np.array([1.0, 2.0, 3.0] + [0.0] * 7)
        data = random_centered_dataset(rng, 50, 10, sigma=sigma, beta=beta, rho=0.5)
        result = select(data, AIC)
        assert len(result.gamma_values) == 2**10
        for s, g in result.gamma_values.items():
            sse = math.exp((g - AIC.c_n(data.n) * s.size) / data.n)
            xs = data.X[:, s.positions]
            resid = data.y - xs @ np.linalg.lstsq(xs, data.y, rcond=None)[0]
            expected = float(resid @ resid)
            assert abs(sse - expected) <= 1e-6 * expected, (s, sse, expected)

    def test_collinear_subtrees_pruned_across_chunks(self, rng, monkeypatch):
        # columns 2 and 5 are equal, so every subset holding both is rank
        # deficient; n=8 leaves the 7-variable model no residual degree of
        # freedom; a tiny sweep chunk splits the pools of states
        monkeypatch.setattr(selection, "_SWEEP_CHUNK", 3)
        before, data, after = (
            random_centered_dataset(rng, 8, 7, beta=np.arange(7.0)) for _ in range(3)
        )
        x = data.X.copy()
        x[:, 4] = x[:, 1]
        data = Dataset(y=data.y, X=x)
        # swept between two well-conditioned datasets, each keeps its own row:
        # the pruning of one does not leak into the others
        stack = [before, data, after]
        rows = selection._lattice_sse(stack, 6)
        for row, alone in zip(rows, stack):
            single = selection._lattice_sse([alone], 6)[0]
            assert np.array_equal(row.view(np.int64), single.view(np.int64))
        assert np.isinf(rows[1]).sum() > np.isinf(rows[0]).sum() == 1

        result = select(data, AIC)
        bf_chosen, bf_table = brute_force_select(data, AIC)
        assert result.chosen == bf_chosen
        # both lists come in size order, then index-list order
        assert list(result.gamma_values) == list(bf_table)
        for s, g in bf_table.items():
            assert result.gamma_values[s] == pytest.approx(g, rel=1e-10)
        deficient = [
            (Subset(c), "rank deficient")
            for k in range(2, 7)
            for c in itertools.combinations(range(1, 8), k)
            if {2, 5} <= set(c)
        ]
        assert result.skipped == (
            (Subset(tuple(range(1, 8))), "insufficient degrees of freedom"),
            *deficient,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        extra=st.integers(2, 12),
        log_sigma=st.floats(-8.0, 0.0),
        log_scales=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
        rho=st.floats(0.0, 0.99),
    )
    def test_stacked_rows_equal_single_rows_at_extremes(
        self, seed, p, extra, log_sigma, log_scales, rho
    ):
        # noise down to 1e-8, columns scaled by 1e-6..1e6, correlation up to
        # 0.99 and n down to p + 2: a dataset's SSE row and its selection do
        # not depend on the datasets swept with it (and, as pytest turns
        # warnings into errors, nothing warns)
        rng = np.random.default_rng(seed)
        n = p + extra
        scales = 10.0 ** np.array(log_scales[:p])
        stack = []
        for _ in range(3):
            data = random_centered_dataset(
                rng, n, p, sigma=10.0**log_sigma, beta=np.ones(p), rho=rho
            )
            stack.append(centered_dataset(data.y, data.X * scales)[0])
        max_size = min(p, n - 2)
        rows = selection._lattice_sse(stack, max_size)
        for row, stacked, data in zip(rows, select_stack(stack, AIC), stack):
            single = selection._lattice_sse([data], max_size)[0]
            assert np.array_equal(row.view(np.int64), single.view(np.int64))
            alone = select(data, AIC)
            assert stacked.chosen == alone.chosen
            assert np.array_equal(stacked.scores.view(np.int64), alone.scores.view(np.int64))
            assert stacked.truncated_sse_count == alone.truncated_sse_count

    def test_size_cap_limits_enumeration(self, rng):
        data = random_centered_dataset(rng, 20, 6)
        result = select(data, AIC, size_cap=2)
        assert max(s.size for s in result.gamma_values) == 2
        assert len(result.gamma_values) == 1 + 6 + 15
        bf_chosen, _ = brute_force_select(data, AIC, size_cap=2)
        assert result.chosen == bf_chosen

    def test_too_many_predictors(self, rng):
        x = rng.standard_normal((23, 21))
        data = Dataset(y=np.zeros(23), X=x - x.mean(axis=0))
        with pytest.raises(ValueError, match="enumeration limit"):
            select(data, AIC)

    def test_zero_column_subsets_skipped_with_reason(self, rng):
        x = rng.standard_normal((15, 2))
        x[:, 1] = 3.0  # constant, zero after centering
        y = x[:, 0] + rng.standard_normal(15)
        data = Dataset(y=y - y.mean(), X=x - x.mean(axis=0))
        result = select(data, AIC)
        skipped = {s for s, reason in result.skipped if reason == "rank deficient"}
        assert skipped == {Subset((2,)), Subset((1, 2))}
        assert set(result.gamma_values) == {Subset(), Subset((1,))}
        assert result.chosen == Subset((1,))

    def test_dominant_signal_recovers_true_subset(self, rng):
        beta = np.array([0.0, 50.0, 0.0, -40.0, 0.0])
        data = random_centered_dataset(rng, 40, 5, beta=beta)
        result = select(data, BIC)
        assert result.chosen == Subset((2, 4))

    def test_reference_configuration_contains_truth(self):
        # n=50, p=10, AR(1) rho=0.5, beta=(1,2,3,0,...), sigma=1, AIC
        beta = np.zeros(10)
        beta[:3] = [1.0, 2.0, 3.0]
        hits = 0
        reps = 100
        for i in range(reps):
            rng = np.random.default_rng(10_000 + i)
            z = rng.standard_normal((50, 10))
            x_raw = ar1_rows_cholesky(z, 0.5)
            y_raw = x_raw @ beta + rng.standard_normal(50)
            data = Dataset(y=y_raw - y_raw.mean(), X=x_raw - x_raw.mean(axis=0))
            chosen = select(data, AIC).chosen
            hits += Subset((1, 2, 3)).issubset(chosen)
        assert hits >= 0.99 * reps


class TestOverfitCondition:
    def test_reference_arithmetic(self):
        diag = overfit_condition(50, 3, 4, 2.0)
        assert diag.a_n == pytest.approx(1.84, abs=1e-12)
        assert diag.d_n == pytest.approx(1 / 46, abs=1e-12)
        assert diag.threshold == pytest.approx(1.0 - math.exp(-1.84 / 46), abs=1e-12)
        assert diag.holds

    def test_small_penalty_fails(self):
        diag = overfit_condition(50, 3, 4, 0.01)
        assert not diag.holds

    def test_size_validation(self):
        with pytest.raises(ValueError):
            overfit_condition(50, 3, 3, 2.0)
        with pytest.raises(ValueError):
            overfit_condition(50, 4, 3, 2.0)
        with pytest.raises(ValueError):
            overfit_condition(5, 1, 4, 2.0)
        for c_n in (-2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                overfit_condition(50, 3, 4, c_n)

    def test_condition_region_is_an_interval_below_the_root(self):
        # 1 - exp(-a x) is concave with slope a at zero, so for a > 1 the
        # condition holds exactly on (0, d) where d solves 1 - exp(-a d) = d;
        # for a <= 1 it never holds
        for n in (20, 50, 100, 200):
            for p in (4, 8, 12):
                if p >= n - 2:
                    continue
                for cn in (2.0, math.log(n), 0.5, 5.0):
                    for size_star in (1, 3):
                        df_star = n - size_star - 1
                        a_n = (cn / n) * df_star
                        assert a_n >= cn * (n - p - 1) / n - 1e-12
                        d_root = _condition_root(a_n)
                        for size_hat in range(size_star + 1, min(p, n - 2) + 1):
                            diag = overfit_condition(n, size_star, size_hat, cn)
                            expected = 0 < diag.d_n < d_root
                            if abs(diag.d_n - d_root) > 1e-9:
                                assert diag.holds == expected


def _condition_root(a: float) -> float:
    """Positive solution of 1 - exp(-a d) = d, or 0 when a <= 1."""
    if a <= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-a * mid) > mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _signal_dataset(seed: int, n: int = 50, p: int = 10):
    rng = np.random.default_rng(seed)
    beta = np.zeros(p)
    beta[:3] = [1.0, 2.0, 3.0]
    return random_centered_dataset(rng, n, p, beta=beta, rho=0.5)


class TestTheoremReport:
    def test_reference_sizes_arithmetic(self):
        data = _signal_dataset(0)
        report = theorem_report(data, Subset((1, 2, 3)), Subset((1, 2, 3, 4)), AIC)
        assert report.a_n == pytest.approx(1.84, abs=1e-12)
        assert report.d_n == pytest.approx(1 / 46, abs=1e-12)
        assert report.condition_holds
        assert report.s_star.is_strict_subset(report.s_hat)

    def test_selected_overfit_underestimates(self):
        # under-estimation is forced by the condition only when the larger
        # model actually wins the score comparison, as a selected subset does
        found = 0
        for seed in range(60):
            data = _signal_dataset(300 + seed)
            s_star = Subset((1, 2, 3))
            s_hat = select(data, AIC).chosen
            if not s_star.is_strict_subset(s_hat):
                continue
            report = theorem_report(data, s_star, s_hat, AIC)
            assert report.condition_holds  # AIC at n=50 always satisfies it
            assert report.underestimates
            found += 1
        assert found >= 10

    def test_identical_subsets(self):
        data = _signal_dataset(1)
        s = Subset((1, 2, 3))
        report = theorem_report(data, s, s, AIC)
        assert report.d_n == 0.0
        assert report.r_n == 0.0
        assert report.f_n is None
        assert not report.condition_holds
        assert not report.s_star.is_strict_subset(report.s_hat)
        assert not report.underestimates
        assert report.sigma_hat_selected == report.sigma_hat_star

    def test_non_nested_pair_flags_fields_absent(self):
        data = _signal_dataset(2)
        report = theorem_report(data, Subset((1, 2, 3)), Subset((1, 2, 4)), AIC)
        assert report.d_n is None
        assert report.r_n is None
        assert report.f_n is None
        assert not report.s_star.is_strict_subset(report.s_hat)
        assert not report.condition_holds

    def test_zero_sse_star_raises(self, rng):
        x = rng.standard_normal((10, 3))
        data = Dataset(y=np.zeros(10), X=x - x.mean(axis=0))
        with pytest.raises(PostselectError, match="is zero"):
            theorem_report(data, Subset((1,)), Subset((1, 2)), AIC)

    @pytest.mark.parametrize("seed", range(4))
    def test_variance_identity(self, seed):
        data = _signal_dataset(100 + seed)
        report = theorem_report(data, Subset((1, 2, 3)), Subset((1, 2, 3, 5, 7)), AIC)
        n = data.n
        lhs = report.sigma_hat_selected**2
        rhs = (
            (n - report.s_star.size - 1)
            / (n - report.s_hat.size - 1)
            * (1.0 - report.r_n)
            * report.sigma_hat_star**2
        )
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # and the SSE identity itself
        assert report.sse_hat == pytest.approx(
            (1.0 - report.r_n) * report.sse_star, rel=1e-10
        )

    def test_overfit_with_condition_implies_underestimation(self):
        # the central implication, on a randomized sweep (the acceptance
        # suite runs the full-size version)
        checked = 0
        rng = np.random.default_rng(77)
        for _ in range(400):
            n = int(rng.integers(20, 101))
            p = int(rng.integers(4, 13))
            support = rng.choice(p, size=int(rng.integers(1, 4)), replace=False)
            beta = np.zeros(p)
            beta[support] = rng.uniform(0.5, 3.0, size=support.size) * rng.choice(
                [-1.0, 1.0], size=support.size
            )
            data = random_centered_dataset(rng, n, p, beta=beta)
            s_star = Subset.of(support + 1)
            cn = float(rng.choice([2.0, math.log(n), 0.5, 5.0]))
            crit = Criterion.custom(cn)
            s_hat = select(data, crit).chosen
            if not s_star.is_strict_subset(s_hat):
                continue
            report = theorem_report(data, s_star, s_hat, crit)
            if report.condition_holds:
                checked += 1
                assert report.underestimates, (n, p, cn, s_star, s_hat)
        assert checked > 30  # the sweep must actually exercise the implication


def _preference(data, s_star, s_hat, crit):
    return preference_check(theorem_report(data, s_star, s_hat, crit), data.n, crit)


class TestPreferenceEquivalence:
    def test_zero_improvement_prefers_neither(self):
        x = np.array([[1.0, 2.0], [0.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
        y = np.array([1.0, 2.0, -1.0, -2.0])
        data = Dataset(y=y, X=x)
        check = _preference(data, Subset((1,)), Subset((1, 2)), AIC)
        assert not check.prefers_by_gamma
        assert not check.prefers_by_rn
        assert not check.is_tie

    def test_near_perfect_fit_prefers_larger(self, rng):
        x = rng.standard_normal((20, 3))
        x -= x.mean(axis=0)
        resid_dir = rng.standard_normal(20)
        resid_dir -= resid_dir.mean()
        q, _ = np.linalg.qr(np.column_stack([x, resid_dir]))
        y = x @ np.array([1.0, -2.0, 0.5]) + 1e-8 * q[:, 3]
        data = Dataset(y=y - y.mean(), X=x)
        check = _preference(data, Subset((1,)), Subset((1, 2, 3)), AIC)
        assert check.prefers_by_gamma
        assert check.prefers_by_rn

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dual_evaluation_agrees(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 60))
        p = int(rng.integers(3, 8))
        beta = np.zeros(p)
        beta[0] = rng.uniform(-2, 2)
        data = random_centered_dataset(rng, n, p, beta=beta)
        small_size = int(rng.integers(1, p - 1))
        small = Subset.of(rng.choice(p, size=small_size, replace=False) + 1)
        extras = [i for i in range(1, p + 1) if i not in small.indices]
        big = Subset.of(
            small.indices
            + tuple(rng.choice(extras, size=int(rng.integers(1, len(extras) + 1)), replace=False))
        )
        crit = Criterion.custom(float(rng.choice([2.0, math.log(n), 0.5, 5.0])))
        check = _preference(data, small, big, crit)
        if not check.is_tie:
            assert check.prefers_by_gamma == check.prefers_by_rn

    def test_not_nested_and_zero_sse_errors(self, rng):
        # a pair that is not nested has no r_n to compare against the threshold
        data = random_centered_dataset(rng, 15, 4)
        report = theorem_report(data, Subset((1, 2)), Subset((1, 3)), AIC)
        assert report.r_n is None and report.d_n is None
        x = rng.standard_normal((10, 3))
        degenerate = Dataset(y=np.zeros(10), X=x - x.mean(axis=0))
        with pytest.raises(PostselectError, match="is zero"):
            _preference(degenerate, Subset((1,)), Subset((1, 2)), AIC)
