import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postselect import (
    Criterion,
    Dataset,
    Subset,
    centered_dataset,
    ols_fit,
    overfit_condition,
    select,
    theorem_report,
)
from postselect import selection
from postselect.distributions import regularized_incomplete_beta
from postselect.errors import PostselectError
from postselect.linalg import RANK_RTOL
from postselect.selection import ENUMERATION_LIMIT, select_stack

from oracles import (
    TIE_RTOL,
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
        # the largest penalty must fit in half the float range
        limit = sys.float_info.max / 2 / ENUMERATION_LIMIT
        for c_n in (1e308, math.nextafter(limit, math.inf)):
            with pytest.raises(ValueError, match=r"needs a c_n in \[0, "):
                Criterion.custom(c_n)
        with pytest.raises(ValueError, match="sample size"):
            BIC.c_n(0)

    def test_largest_penalty_scores_every_subset(self, rng):
        # at the largest c_n accepted every score is finite: no overflow
        # warning, no subset skipped as rank deficient, and the empty model wins
        crit = Criterion.custom(sys.float_info.max / 2 / ENUMERATION_LIMIT)
        result = select(random_centered_dataset(rng, 30, 4), crit)
        assert not result.skipped and result.chosen == Subset()


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


def _extreme_dataset(
    seed: int, p: int, extra: int, log_sigma: float, log_scales: list[float],
    rho: float, duplicate: bool,
) -> tuple[Dataset, Dataset]:
    """n = p + extra rows, noise 10^log_sigma, AR(1) correlation rho and, when
    ``duplicate`` (and p > 1), a last column that copies the first; returned
    with column j scaled by 10^log_scales[j], and unscaled."""
    rng = np.random.default_rng(seed)
    n = p + extra
    data = random_centered_dataset(rng, n, p, sigma=10.0**log_sigma, beta=np.ones(p), rho=rho)
    x = data.X.copy()
    if duplicate and p > 1:
        x[:, -1] = x[:, 0]
    unscaled = centered_dataset(data.y, x)[0]
    return centered_dataset(data.y, x * 10.0 ** np.array(log_scales[:p]))[0], unscaled


def _exhaustive(data: Dataset, crit: Criterion):
    """``select`` asked for every subset, so that it prunes nothing."""
    return select(data, crit, top=2**data.p)


def _stacked(stack: list[Dataset], crit: Criterion, top: int):
    """``select_stack`` on the datasets, as each one's masks, scores and
    floored count."""
    data = np.array([np.column_stack([d.X, d.y]) for d in stack])
    masks, scores, bounds, floored, _ = select_stack(data, crit, top=top)
    return [(masks[a:b], scores[a:b], f) for a, b, f in zip(bounds[:-1], bounds[1:], floored)]


def _p18_dataset() -> Dataset:
    """n = 200, p = 18, AR(1) columns with rho = 0.5 and three true variables."""
    rng = np.random.default_rng(42)
    beta = np.zeros(18)
    beta[[2, 9, 15]] = [1.5, 2.0, 2.5]
    return random_centered_dataset(rng, 200, 18, beta=beta, rho=0.5)


def _table(result) -> dict[int, float]:
    """Score of every visited subset, by bitmask."""
    return dict(zip(result.masks.tolist(), result.scores.tolist()))


class TestGamma:
    """The score ``n log SSE + c_n |S|`` of every subset, where an exact fit,
    an SSE at most ``(n eps)^2 ||y||^2``, reads as that bound."""

    def test_unit_sse_counts_only_penalty(self):
        table = _table(_exhaustive(_orthogonal_dataset(50, 3, 1.0), AIC))
        assert sorted(table) == list(range(8))
        for mask, g in table.items():
            assert g == pytest.approx(2.0 * bin(mask).count("1"), abs=1e-12)

    def test_euler_sse_adds_n(self):
        table = _table(_exhaustive(_orthogonal_dataset(50, 3, math.e), AIC))
        assert table[0b111] == pytest.approx(56.0, abs=1e-10)

    def test_bic_penalty(self):
        table = _table(_exhaustive(_orthogonal_dataset(50, 3, 1.0), BIC))
        assert table[0b111] == pytest.approx(3 * math.log(50), abs=1e-10)

    def test_nonpositive_sse(self, rng):
        # y = x1 exactly: every subset holding column 1 is an exact fit, which
        # scores as the bound instead of as log(0) = -inf
        x = rng.standard_normal((30, 3))
        x -= x.mean(axis=0)
        result = _exhaustive(Dataset(y=x[:, 0], X=x), AIC)
        assert result.truncated_sse_count == 4
        table = _table(result)
        bound = (30 * np.finfo(np.float64).eps) ** 2 * (x[:, 0] @ x[:, 0])
        for mask in (0b001, 0b011, 0b101, 0b111):
            expected = 30 * math.log(bound) + 2.0 * bin(mask).count("1")
            assert table[mask] == pytest.approx(expected, rel=1e-15)
        assert len(table) == 8 and np.all(np.isfinite(result.scores))

    def test_tiny_sse_is_not_an_exact_fit(self):
        # the bound is relative to ||y||: an SSE of 1e-310 that is all of
        # ||y||^2 is no exact fit, and scores by its own log
        result = _exhaustive(_orthogonal_dataset(50, 3, 1e-310), AIC)
        assert result.truncated_sse_count == 0
        table = _table(result)
        assert sorted(table) == list(range(8))
        for mask, g in table.items():
            expected = 50 * math.log(1e-310) + 2.0 * bin(mask).count("1")
            assert g == pytest.approx(expected, rel=1e-14)

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
        scores = _table(_exhaustive(_orthogonal_dataset(n, p, sse, seed), crit))
        larger = _table(_exhaustive(_orthogonal_dataset(n, p, sse * 1.01, seed), crit))
        assert len(scores) == len(larger) == 1 << p
        for mask in range(1 << p):
            assert larger[mask] > scores[mask]
            for bit in range(p):
                if not mask >> bit & 1:
                    assert scores[mask | 1 << bit] > scores[mask]


class TestNodeSse:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reduced_sse_matches_direct_fit(self, seed):
        # a node's SSE, the square of the last diagonal entry of its R factor
        # after Givens column deletions from the stacked QR of [X | y], is the
        # SSE of a direct fit of its subset; c_n = 0 leaves n log SSE
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 18, 5)
        gamma = _exhaustive(data, Criterion.custom(0.0)).gamma_values
        assert len(gamma) == 2**5
        for s, g in gamma.items():
            assert math.exp(g / 18) == pytest.approx(ols_fit(data, s).sse, rel=1e-10)


class TestSelect:
    def test_zero_response_selects_empty_subset(self, rng):
        x = rng.standard_normal((12, 4))
        data = Dataset(y=np.zeros(12), X=x - x.mean(axis=0))
        result = select(data, AIC)
        assert result.chosen == Subset()
        assert result.ties == (Subset(),)
        assert _exhaustive(data, AIC).truncated_sse_count == 2**4

    def test_all_gammas_tie_under_zero_penalty_and_zero_response(self, rng):
        # every subset is an exact fit and the penalty is zero, so the
        # tie-break must order all 2^p subsets by size then index list
        x = rng.standard_normal((12, 3))
        data = Dataset(y=np.zeros(12), X=x - x.mean(axis=0))
        result = select(data, Criterion.custom(0.0))
        assert result.chosen == Subset()
        assert len(result.ties) == 8
        assert result.ties[:4] == (Subset(), Subset((1,)), Subset((2,)), Subset((3,)))

    @pytest.mark.parametrize("crit", [AIC, BIC], ids=["aic", "bic"])
    def test_ranking_does_not_depend_on_the_data_scale(self, crit):
        # the exact-fit bound is relative to ||y||, so data scaled down until
        # their SSEs are subnormal (about 1e-310 at 1e-155) rank as at scale 1
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 4))
        y = 5.0 + x[:, 0] + 2.0 * x[:, 1] + rng.standard_normal(30)
        runs = []
        for scale in (1.0, 1e-100, 1e-150, 1e-155):
            result = select(centered_dataset(scale * y, scale * x)[0], crit, top=10)
            assert result.truncated_sse_count == 0, scale
            runs.append((result.chosen, result.ties, [s for s, _ in result.ranked(10)]))
        assert runs[0][0] == Subset((1, 2))
        assert runs[1:] == runs[:1] * 3

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        beta = np.array([1.5, -1.0, 0.0, 0.0])
        data = random_centered_dataset(rng, 12, 4, beta=beta)
        crit = [AIC, BIC, Criterion.custom(0.7)][seed % 3]
        bf_chosen, bf_table = brute_force_select(data, crit)
        assert select(data, crit).chosen == bf_chosen
        result = _exhaustive(data, crit)
        assert result.chosen == bf_chosen
        assert set(result.gamma_values) == set(bf_table)
        for s, g in bf_table.items():
            assert result.gamma_values[s] == pytest.approx(g, rel=1e-10)
        bf_ranked = sorted(bf_table, key=lambda s: (bf_table[s], s.size, s.indices))
        assert [s for s, _ in select(data, crit, top=5).ranked(5)] == bf_ranked[:5]
        assert [s for s, _ in result.ranked(2**4)] == bf_ranked

    def test_ranked_beyond_top_raises(self, rng):
        data = random_centered_dataset(rng, 12, 4)
        result = select(data, AIC, top=3)
        assert len(result.ranked(3)) == 3
        with pytest.raises(ValueError, match="top"):
            result.ranked(4)
        with pytest.raises(ValueError, match="top"):
            select(data, AIC, top=0)
        with pytest.raises(TypeError):  # top is keyword-only
            select(data, AIC, 3)

    def test_top_above_the_subset_count_searches_them_all(self, rng):
        data = random_centered_dataset(rng, 12, 4)
        every, beyond = select(data, AIC, top=2**4), select(data, AIC, top=10**20)
        assert beyond.top == 10**20
        assert beyond.masks.tolist() == every.masks.tolist()
        assert beyond.scores.tolist() == every.scores.tolist()
        assert beyond.ranked(10**20) == every.ranked(2**4)

    def test_exhaustive_call_visits_every_subset(self, rng):
        # top = 2^p keeps every subset exact, so the search prunes nothing
        data = random_centered_dataset(rng, 20, 7, beta=np.arange(7.0))
        result = _exhaustive(data, BIC)
        assert sorted(result.masks.tolist()) == list(range(2**7))
        assert len(select(data, BIC).masks) < 2**7

    @pytest.mark.parametrize("sigma", [1.0, 1e-4, 1e-6, 1e-8])
    def test_high_snr_sse_matches_lstsq(self, sigma):
        # Each SSE is read from a residual, not as ||y||^2 - ||proj||^2.  To
        # first order, a backward-stable orthogonal reduction perturbs the
        # residual norm sqrt(SSE) by about eps sqrt(n) ||y||, so SSE has
        # relative error about 2 eps sqrt(n) ||y|| / sqrt(SSE).  The engine and
        # lstsq each contribute one such error; 8 allows twice that for both
        # (about 2.5 is seen up to sigma = 1e-8, where the bound is 3e-6).
        eps = np.finfo(np.float64).eps
        for seed in range(12):
            rng = np.random.default_rng(seed)
            beta = 10.0 * np.array([1.0, 2.0, 3.0] + [0.0] * 7)
            data = random_centered_dataset(rng, 50, 10, sigma=sigma, beta=beta, rho=0.5)
            gamma = _exhaustive(data, AIC).gamma_values
            assert len(gamma) == 2**10
            scale = 8 * eps * math.sqrt(data.n) * float(np.linalg.norm(data.y))
            for s, g in gamma.items():
                sse = math.exp((g - AIC.c_n(data.n) * s.size) / data.n)
                xs = data.X[:, s.positions]
                resid = data.y - xs @ np.linalg.lstsq(xs, data.y, rcond=None)[0]
                expected = float(resid @ resid)
                bound = scale / math.sqrt(expected)
                assert abs(sse - expected) <= bound * expected, (seed, s, sse, expected)

    def test_collinear_subtrees_pruned_across_chunks(self, rng, monkeypatch):
        # columns 2 and 5 are equal, so every subset holding both is rank
        # deficient but keeps its children, which may drop one of them; n=8
        # leaves the 7-variable model no residual degree of freedom; a tiny
        # batch budget splits every level into batches of one node
        monkeypatch.setattr(selection, "_BATCH_FLOATS", 1)
        before, data, after = (
            random_centered_dataset(rng, 8, 7, beta=np.arange(7.0)) for _ in range(3)
        )
        x = data.X.copy()
        x[:, 4] = x[:, 1]
        data = Dataset(y=data.y, X=x)
        # searched between two well-conditioned datasets, each keeps its own
        # result: the pruning of one does not leak into the others
        stack = [before, data, after]
        rows = _stacked(stack, AIC, top=2**7)
        for (masks, scores, _), alone in zip(rows, stack):
            alone = _exhaustive(alone, AIC)
            assert np.array_equal(masks, alone.masks)
            assert np.array_equal(scores.view(np.int64), alone.scores.view(np.int64))
        (_, scores_before, _), (_, scores_data, _), _ = rows
        assert np.isinf(scores_data).sum() > np.isinf(scores_before).sum() == 1

        result = _exhaustive(data, AIC)
        bf_chosen, bf_table = brute_force_select(data, AIC)
        assert result.chosen == select(data, AIC).chosen == bf_chosen
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
        duplicate=st.booleans(),
        top=st.sampled_from([1, 3]),
    )
    def test_stacked_rows_equal_single_rows_at_extremes(
        self, seed, p, extra, log_sigma, log_scales, rho, duplicate, top
    ):
        # noise down to 1e-8, columns scaled by 1e-6..1e6, correlation up to
        # 0.99, n down to p + 2 and a duplicated column: a dataset's result,
        # down to which subsets it visits, does not depend on the datasets
        # searched with it (and, as pytest turns warnings into errors,
        # nothing warns)
        stack = [
            _extreme_dataset(seed + i, p, extra, log_sigma, log_scales, rho, duplicate)[0]
            for i in range(3)
        ]
        for (masks, scores, floored), data in zip(_stacked(stack, AIC, top=top), stack):
            alone = select(data, AIC, top=top)
            assert np.array_equal(masks, alone.masks)
            assert np.array_equal(scores.view(np.int64), alone.scores.view(np.int64))
            assert floored == alone.truncated_sse_count

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 6),
        extra=st.integers(2, 12),
        log_sigma=st.floats(-8.0, 0.0),
        log_scales=st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6),
        rho=st.floats(0.0, 0.99),
        duplicate=st.booleans(),
        crit=st.sampled_from([AIC, BIC]),
    )
    def test_matches_brute_force_at_extremes(
        self, seed, p, extra, log_sigma, log_scales, rho, duplicate, crit
    ):
        # the same extremes against the normal-equations brute force.  A
        # subset's SSE does not depend on the scale of its columns, so the
        # brute force runs on the unscaled columns, where its normal equations
        # keep their digits, and over the subsets that the search does not
        # call rank deficient: its rule, relative to R's largest diagonal
        # entry, does depend on the scales.  The chosen subset and every tie
        # score the minimum, up to TIE_RTOL, where the two computations may
        # order near-equal scores differently.
        data, unscaled = _extreme_dataset(seed, p, extra, log_sigma, log_scales, rho, duplicate)
        result = select(data, crit)
        deficient = {s for s, why in _exhaustive(data, crit).skipped if why == "rank deficient"}
        table = {
            s: g for s, g in brute_force_select(unscaled, crit)[1].items() if s not in deficient
        }
        best = min(table.values())

        def ties_best(s):
            return s in table and table[s] - best <= TIE_RTOL * max(1.0, abs(best))

        assert ties_best(result.chosen)
        assert all(ties_best(s) for s in result.ties)

    def test_batches_of_one_dataset_change_no_bits(self, rng, monkeypatch):
        # a batch budget of one float builds every child of the search alone,
        # and one of 2^8 floats builds 5 (at s = 6) to 64 (at s = 1) at once,
        # its batches ending inside a chunk (the drop-one ordering pass is not
        # batched: it keeps one row per child); the last dataset's y = x1
        # exactly, so some of its subsets hit the SSE floor
        stack = [random_centered_dataset(rng, 30, 6, beta=np.arange(6.0)) for _ in range(4)]
        stack.append(Dataset(y=stack[0].X[:, 0], X=stack[0].X))
        data = np.array([np.column_stack([d.X, d.y]) for d in stack])
        default = select_stack(data, BIC, top=5)
        for budget in (1, 1 << 8):
            monkeypatch.setattr(selection, "_BATCH_FLOATS", budget)
            masks, scores, bounds, floored, cap = select_stack(data, BIC, top=5)
            assert np.array_equal(masks, default[0]) and np.array_equal(bounds, default[2])
            assert np.array_equal(scores.view(np.int64), default[1].view(np.int64))
            assert np.array_equal(floored, default[3]) and floored[-1] > 0
            assert cap == default[4]

    def test_batch_budget_changes_no_bits_at_p_18(self, monkeypatch):
        # at 2^10 floats a batch holds 2 children at s = 18 and 20 at s = 6,
        # so most chunks split into several batches
        data = _p18_dataset()
        default = select(data, BIC, top=10)
        monkeypatch.setattr(selection, "_BATCH_FLOATS", 1 << 10)
        result = select(data, BIC, top=10)
        assert np.array_equal(result.masks, default.masks)
        assert np.array_equal(result.scores.view(np.int64), default.scores.view(np.int64))
        assert result.truncated_sse_count == default.truncated_sse_count

    def test_batches_are_sized_by_the_children_they_build(self, monkeypatch):
        # a parent builds about 1.3 children, so batches sized by parents as
        # if each built s would fill a few percent of the budget: 157 calls
        # on this dataset, against 44 with batches of children
        calls = []

        def drop_column(h, j):
            calls.append((h.shape[1] - 1, len(h)))
            return drop(h, j)

        drop = selection._drop_column
        monkeypatch.setattr(selection, "_drop_column", drop_column)
        select(_p18_dataset(), BIC, top=10)
        assert all(m <= max(1, selection._BATCH_FLOATS // (s + 1) ** 2) for s, m in calls)
        assert len(calls) <= 150, len(calls)

    @pytest.mark.parametrize("p", range(1, 9))
    @pytest.mark.parametrize("column", ["none", "zero", "duplicate"])
    def test_one_row_drop_one_pass_matches_drop_column(self, p, column):
        # the ordering pass keeps one row per child, yet gives the bits of
        # building every child of the full factor whole; a zero column takes
        # the rotation's rad == 0 branch, and a duplicated column's pivot is
        # rounding noise, which some BLAS kernels round to exactly 0
        rng = np.random.default_rng(p)
        x = rng.standard_normal((5, 12, p))
        if column == "zero":
            x[:, :, p // 2] = 0.0
        elif column == "duplicate" and p > 1:
            x[:, :, -1] = x[:, :, 0]
        y = x.sum(axis=2) + rng.standard_normal((5, 12))
        r = np.linalg.qr(np.concatenate([x, y[:, :, None]], axis=2), mode="r")
        if column == "duplicate" and p > 1:
            pivot, norm = np.abs(r[:, p - 1, p - 1]), np.hypot.reduce(r[:, :, p - 1], axis=1)
            assert (pivot <= RANK_RTOL * norm).all()
        else:
            assert (column == "zero") == (r.diagonal(0, 1, 2) == 0.0).any()
        b = len(r)
        children = selection._drop_column(r[np.tile(np.arange(b), p)], np.repeat(np.arange(p), b))
        expected = children[:, p - 1, p - 1].reshape(p, b).T
        assert np.array_equal(selection._drop_one(r).view(np.int64), expected.view(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 8),
        extra=st.integers(2, 30),
        rho=st.floats(0.0, 0.95),
        duplicate=st.booleans(),
        crit=st.sampled_from([AIC, BIC]),
        top=st.sampled_from([1, 3, 10]),
    )
    # a y whose mean, 1.1e-16, is above 4 eps max|y| of the centered y: the
    # centering tolerance must come from the data it was centered from
    @example(seed=3594, p=2, extra=2, rho=0.0, duplicate=True, crit=AIC, top=1)
    def test_pruning_keeps_the_exhaustive_top(self, seed, p, extra, rho, duplicate, crit, top):
        # the search visits a subset of the exhaustive search's subsets, with
        # the same scores, and every subset it skips scores above the
        # exhaustive top-th best, so its chosen, ties and ranking are exact
        rng = np.random.default_rng(seed)
        beta = rng.choice([0.0, 0.3, 2.0], size=p)
        data = random_centered_dataset(rng, p + extra, p, beta=beta, rho=rho)
        if duplicate and p > 1:
            x = data.X.copy()
            x[:, -1] = x[:, 0]
            data = centered_dataset(data.y, x)[0]  # these are its raw data
        full, result = _exhaustive(data, crit), select(data, crit, top=top)
        visited, every = _table(result), _table(full)
        assert len(visited) == len(result.masks) and visited.keys() <= every.keys()
        same = np.array([every[m] for m in visited]).view(np.int64)
        assert np.array_equal(result.scores.view(np.int64), same)
        assert result.chosen == full.chosen and result.ties == full.ties
        k = min(top, 2**p)  # an exhaustive search keeps at most 2^p exact
        assert result.ranked(k) == full.ranked(k)
        assert all(every[m] > full.scores[k - 1] for m in every.keys() - visited.keys())

    def test_select_memory_is_bounded(self):
        # the search builds children in bounded batches and keeps each level's
        # frontier as packed triangles, so p = 18 (262,144 subsets) stays small
        data = _p18_dataset()
        select(data, BIC, top=10)
        tracemalloc.start()
        try:
            select(data, BIC, top=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak

    @pytest.mark.parametrize("crit, most", [(BIC, 9_000), (AIC, 5_000)], ids=["bic", "aic"])
    def test_top_k_search_starts_from_a_top_1_cut(self, crit, most):
        # the top-1 pass's 10th best visited subset starts the cut; from the
        # p + 1 nested prefixes alone, the search visits 22,569 (BIC) and 9,280 (AIC)
        assert len(select(_p18_dataset(), crit, top=10).masks) <= most

    @pytest.mark.parametrize("top", [1, 10])
    def test_one_qr_of_the_data(self, top, monkeypatch):
        # both passes of a top-k search read the one factor of the n rows
        data, calls = _p18_dataset(), []

        def qr(a, mode="reduced"):
            calls.append(a.shape[-2])
            return linalg_qr(a, mode)

        linalg_qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", qr)
        select(data, BIC, top=top)
        assert calls.count(data.n) == 1, calls

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
        with pytest.raises(ValueError, match="too large for a float"):
            overfit_condition(10**400, 1, 2, 2.0)
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
        # the diagnostics describe a strict overfit; a pair that is not one is refused
        with pytest.raises(ValueError, match="strictly contain"):
            theorem_report(_signal_dataset(1), Subset((1, 2, 3)), Subset((1, 2, 3)), AIC)

    def test_non_nested_pair_flags_fields_absent(self):
        with pytest.raises(ValueError, match="strictly contain"):
            theorem_report(_signal_dataset(2), Subset((1, 2, 3)), Subset((1, 2, 4)), AIC)

    def test_pair_is_checked_before_any_fit(self, monkeypatch):
        def no_fit(*_, **__):
            raise AssertionError("fitted before the pair was checked")

        data = _signal_dataset(3)
        monkeypatch.setattr(selection.np.linalg, "qr", no_fit)
        for s_hat in (Subset((1, 2)), Subset((1, 2, 4)), Subset((1, 2, 3))):
            with pytest.raises(ValueError, match="strictly contain"):
                theorem_report(data, Subset((1, 2, 3)), s_hat, AIC)
        with pytest.raises(ValueError, match="degrees of freedom"):
            theorem_report(data, Subset((1,)), Subset(tuple(range(1, 50))), AIC)
        with pytest.raises(ValueError, match="beyond the 10 available columns"):
            theorem_report(data, Subset((1,)), Subset((1, 11)), AIC)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_no_drop_is_not_negative_at_any_signal(self, scale):
        # column 3 is orthogonal to S* = {1, 2} and to y, so the SSE drops by
        # exactly nothing; the difference of two fitted SSEs read -1e-10 at 1e6
        n = 30
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((n, 3))
            x -= x.mean(axis=0)
            y = scale * (x[:, 0] + 2.0 * x[:, 1]) + rng.standard_normal(n)
            y -= y.mean()
            basis = np.linalg.qr(np.column_stack([np.ones(n), x[:, :2], y]))[0]
            x[:, 2] -= basis @ (basis.T @ x[:, 2])
            report = theorem_report(Dataset(y=y, X=x), Subset((1, 2)), Subset((1, 2, 3)), AIC)
            assert 0.0 <= report.r_n <= 1e-14 and report.f_n >= 0.0, seed

    def test_collinear_s_star_is_named_before_s_hat(self, rng):
        x = rng.standard_normal((12, 4))
        x[:, 1] = x[:, 0]
        data = centered_dataset(rng.standard_normal(12), x)[0]
        with pytest.raises(PostselectError, match=r"subset \{1,2\} are numerically collinear"):
            theorem_report(data, Subset((1, 2)), Subset((1, 2, 3)), AIC)
        with pytest.raises(PostselectError, match=r"subset \{1,2,4\} are numerically collinear"):
            theorem_report(data, Subset((1, 4)), Subset((1, 2, 4)), AIC)

    def test_zero_sse_star_raises(self, rng):
        x = rng.standard_normal((10, 3))
        data = Dataset(y=np.zeros(10), X=x - x.mean(axis=0))
        with pytest.raises(PostselectError, match="is zero"):
            theorem_report(data, Subset((1,)), Subset((1, 2)), AIC)

    def test_sse_star_of_rounding_error_raises(self):
        # y = 2 x1 + 7 exactly: SSE({1}) is about 1e-30, rounding error next to
        # ||y||^2, so r_n and F_n would measure noise; select flags it too
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 3)) + 100.0
        data = centered_dataset(2.0 * x[:, 0] + 7.0, x)[0]
        assert select(data, AIC).truncated_sse_count > 0
        with pytest.raises(PostselectError, match=r"^SSE\(\{1\}\) is zero up to rounding"):
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

    @pytest.mark.parametrize("seed", range(12))
    def test_scaling_y_or_one_column_leaves_the_report(self, seed):
        # r_n and F_n are ratios of SSEs and the condition depends on the
        # sizes alone, so none of them moves when y or a column is rescaled
        data = _signal_dataset(seed)
        s_star, s_hat = Subset((1, 2, 3)), Subset((1, 2, 3, 5, 7))
        base = theorem_report(data, s_star, s_hat, AIC)
        for factor in (1e6, 1e-6):
            scaled = [Dataset(y=data.y * factor, X=data.X)]
            for j in range(data.p):
                x = data.X.copy()
                x[:, j] *= factor
                scaled.append(Dataset(y=data.y, X=x))
            for d in scaled:
                report = theorem_report(d, s_star, s_hat, AIC)
                assert report.r_n == pytest.approx(base.r_n, rel=1e-10, abs=0)
                assert report.f_n == pytest.approx(base.f_n, rel=1e-10, abs=0)
                assert report.condition_holds == base.condition_holds

    def test_f_n_has_its_f_distribution(self):
        # under S*, F_n is F(|S_hat| - |S*|, n - |S_hat| - 1): centering spends
        # one denominator degree of freedom on the intercept (here F(2, 14)); a
        # Kolmogorov-Smirnov distance at the 0.1 % critical value of 1.95 / sqrt(N)
        rng = np.random.default_rng(2017)
        n, draws, beta = 20, 8000, np.array([1.0, 2.0, 3.0, 0.0, 0.0])
        s_star, s_hat = Subset((1, 2, 3)), Subset((1, 2, 3, 4, 5))
        f_n = []
        for _ in range(draws):
            x = rng.standard_normal((n, 5))
            data = centered_dataset(5.0 + x @ beta + rng.standard_normal(n), x)[0]
            f_n.append(theorem_report(data, s_star, s_hat, AIC).f_n)
        d1, d2 = 2, n - 5 - 1
        cdf = [
            regularized_incomplete_beta(d1 / 2, d2 / 2, d1 * f / (d1 * f + d2), d2 / (d1 * f + d2))
            for f in sorted(f_n)
        ]
        ks = max(max((i + 1) / draws - c, c - i / draws) for i, c in enumerate(cdf))
        assert ks < 1.95 / math.sqrt(draws)

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
        with pytest.raises(ValueError, match="strictly contain"):
            _preference(data, Subset((1, 2)), Subset((1, 3)), AIC)
        x = rng.standard_normal((10, 3))
        degenerate = Dataset(y=np.zeros(10), X=x - x.mean(axis=0))
        with pytest.raises(PostselectError, match="is zero"):
            _preference(degenerate, Subset((1,)), Subset((1, 2)), AIC)
