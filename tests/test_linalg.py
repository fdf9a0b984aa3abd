import copy
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    Criterion,
    Dataset,
    ExperimentConfig,
    QueryPoint,
    RngStream,
    Subset,
    centered_dataset,
    generate_dataset,
    ols_fit,
    run_experiment,
    select,
    summarize,
    theorem_report,
)
from postselect.errors import PostselectError
from postselect.linalg import check_data, ols_fit_stack
from postselect.simulation import GeneratedData

from oracles import normal_equations_fit, random_centered_dataset

AIC = Criterion.aic()


class TestSubset:
    def test_empty_is_valid(self):
        s = Subset()
        assert s.size == 0
        assert s.indices == ()

    def test_of_sorts_and_dedups(self):
        assert Subset.of([3, 1, 2, 3]).indices == (1, 2, 3)

    def test_rejects_nonpositive_indices(self):
        with pytest.raises(ValueError):
            Subset((0, 1))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError):
            Subset((2, 1))
        with pytest.raises(ValueError):
            Subset((1, 1))

    def test_nesting_predicates(self):
        assert Subset((1, 2)).is_strict_subset(Subset((1, 2, 3)))
        assert Subset((1, 2)).issubset(Subset((1, 2)))
        assert not Subset((1, 2)).is_strict_subset(Subset((1, 2)))
        assert not Subset((1, 4)).issubset(Subset((1, 2, 3)))

    def test_positions_are_zero_based(self):
        assert Subset((1, 3)).positions.tolist() == [0, 2]


class TestDataset:
    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="not centered"):
            Dataset(y=[1.0, 1.0, 1.0], X=np.array([[1.0], [0.0], [-1.0]]))
        with pytest.raises(ValueError, match="not centered"):
            Dataset(y=[1.0, 0.0, -1.0], X=np.array([[1.0], [1.0], [1.0]]))

    def test_rejects_p_not_less_than_n(self):
        with pytest.raises(ValueError, match="p < n"):
            Dataset(y=[1.0, -1.0], X=np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_rejects_a_design_that_is_not_a_matrix_with_columns(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            Dataset(y=[1.0, 0.0, -1.0], X=np.array([1.0, 0.0, -1.0]))
        with pytest.raises(ValueError, match="at least one column"):
            Dataset(y=[1.0, 0.0, -1.0], X=np.zeros((3, 0)))

    @pytest.mark.parametrize(
        "copy_of", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_a_copy_stays_frozen_with_x_a_view_of_xy(self, rng, copy_of):
        data = random_centered_dataset(rng, 12, 3)
        twin = copy_of(data)
        for name in ("y", "X", "xy"):
            assert not getattr(twin, name).flags.writeable, name
            np.testing.assert_array_equal(getattr(twin, name), getattr(data, name))
        assert np.shares_memory(twin.X, twin.xy) and twin.y.flags.c_contiguous

    def test_rejects_length_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(y=[1.0, -1.0], X=np.array([[1.0], [0.0], [-1.0]]))
        with pytest.raises(ValueError):
            Dataset(y=[np.nan, 0.0, 0.0], X=np.array([[1.0], [0.0], [-1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["y", "X"])
    def test_nonfinite_value_is_named_as_such(self, bad, where):
        # one abs max serves the finiteness and the magnitude checks; a NaN
        # or inf must still get the finiteness message, in either array
        y, X = np.array([1.0, 0.0, -1.0]), np.array([[1.0], [0.0], [-1.0]])
        (y if where == "y" else X)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Dataset(y=y, X=X)

    def test_magnitude_bound_keeps_every_sse_finite(self, rng):
        # every value at the bound: no sum of squares in the QR or the search
        # overflows (an overflow would warn, and pytest makes that an error)
        n = 20
        bound = np.sqrt(np.finfo(np.float64).max / (4 * n))
        y = bound * np.resize([1.0, -1.0], n)
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        x *= bound / np.abs(x).max()
        result = select(Dataset(y=y, X=x), AIC, top=2**3)
        assert result.scores.size == 2**3 and np.all(np.isfinite(result.scores))
        above = np.nextafter(bound, np.inf)
        with pytest.raises(ValueError, match="magnitude"):
            Dataset(y=above * np.resize([1.0, -1.0], n), X=x)
        with pytest.raises(ValueError, match="magnitude"):
            centered_dataset(rng.standard_normal(n) * 1e160, x)

    @pytest.mark.parametrize(
        "rules, message",
        [
            (["finite"], "y and X must be finite"),
            (["magnitude"], "centered y and X must not exceed"),
            (["y centered"], "y is not centered"),
            (["X centered"], "X columns are not centered"),
            # a dataset that breaks two rules gets the earlier rule's message
            (["X centered", "y centered"], "y is not centered"),
            (["X centered", "finite"], "y and X must be finite"),
        ],
    )
    def test_stacked_check_agrees_with_dataset_row_by_row(self, rng, rules, message):
        # rows 2 and 4 fail, row 4 at the first rule: the stack names row 2,
        # its first failing row, with the message Dataset gives for that row
        y, X, y_raw, X_raw = _centered_stack(rng)
        for rule in rules:
            _break(y[2], X[2], rule)
        _break(y[4], X[4], "finite")
        for i in range(5):
            row = dict(y=y[i], X=X[i], raw=(y_raw[i], X_raw[i]))
            if i in (2, 4):
                with pytest.raises(ValueError):
                    Dataset(**row)
            else:
                Dataset(**row)
        with pytest.raises(ValueError, match=message) as alone:
            Dataset(y=y[2], X=X[2], raw=(y_raw[2], X_raw[2]))
        with pytest.raises(ValueError) as stacked:
            check_data(np.dstack([X, y]), y_raw, X_raw, lambda i: f"row {i}: ")
        assert str(stacked.value) == f"row 2: {alone.value}"

    def test_stacked_check_takes_the_raw_scales(self, rng):
        # removing a mean of 1e8 leaves residual means far above the rounding
        # of the centered values, but within that of the raw ones
        y, X, y_raw, X_raw = _centered_stack(rng, offset=1e8)
        check_data(np.dstack([X, y]), y_raw, X_raw)
        with pytest.raises(ValueError, match="not centered"):
            check_data(np.dstack([X, y]), y, X)

    def test_stacked_check_names_nonfinite_rows_without_warning(self, rng):
        # +inf and -inf in one column make its sum NaN, which must not warn
        y, X, y_raw, X_raw = _centered_stack(rng)
        X[1, 3, 0], X[1, 5, 0], y[1, 2] = np.inf, -np.inf, np.nan
        X[3, 0, 2] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^row 1: y and X must be finite$"):
                check_data(np.dstack([X, y]), y_raw, X_raw, lambda i: f"row {i}: ")

    def test_arrays_are_frozen(self, hand_dataset):
        with pytest.raises(ValueError):
            hand_dataset.y[0] = 5.0

    def test_one_frozen_copy_of_the_callers_arrays(self, rng):
        # X is a view of the one array [X | y]; y is a contiguous copy of its own
        y, X = rng.standard_normal(20), rng.standard_normal((20, 3))
        y, X = y - y.mean(), X - X.mean(axis=0)
        data = Dataset(y=y, X=X)
        kept = np.column_stack([X, y])
        y[:], X[:] = 1.0, 1.0
        assert np.array_equal(data.xy, kept) and np.array_equal(data.X, kept[:, :-1])
        assert np.array_equal(data.y, kept[:, -1]) and data.y.flags.c_contiguous
        assert data.X.base is data.xy
        for frozen in (data.y, data.X, data.xy):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 5.0

    def test_a_tall_dataset_is_held_once(self, rng):
        # centering makes the centered design, the one [X | y] copy and the
        # check's one temporary of it; select reads that copy in place
        n, p = 50_000, 10
        X_raw = rng.standard_normal((n, p)) + 100.0
        y_raw = X_raw[:, :3].sum(axis=1) + rng.standard_normal(n) + 100.0
        select(centered_dataset(y_raw[:50], X_raw[:50])[0], AIC)  # lazy imports and caches
        data, peak = _traced_peak(lambda: centered_dataset(y_raw, X_raw)[0])
        assert peak <= 3.5 * n * (p + 1) * 8, peak
        _, peak = _traced_peak(lambda: select(data, AIC))
        assert peak <= 1.25 * n * (p + 1) * 8, peak

    def test_centered_dataset_records_means(self, rng):
        x_raw = rng.standard_normal((20, 3)) + 7.0
        y_raw = rng.standard_normal(20) - 2.0
        data, y_mean, col_means = centered_dataset(y_raw, x_raw)
        assert y_mean == pytest.approx(y_raw.mean())
        assert col_means == pytest.approx(x_raw.mean(axis=0))
        assert abs(data.y.mean()) < 1e-10
        assert np.abs(data.X.mean(axis=0)).max() < 1e-10


def _traced_peak(call):
    """``call()`` and the peak of the memory that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _centered_stack(rng, offset=0.0):
    """Five datasets, n = 10 and p = 3, centered from raw data about ``offset``:
    ``(y, X, y_raw, X_raw)``."""
    X_raw = offset + rng.standard_normal((5, 10, 3))
    y_raw = offset + rng.standard_normal((5, 10))
    return y_raw - y_raw.mean(axis=1)[:, None], X_raw - X_raw.mean(axis=1)[:, None], y_raw, X_raw


def _break(y, X, rule):
    """Make one dataset's y and X break a data rule, in place."""
    if rule == "finite":
        X[4, 1] = np.nan
    elif rule == "magnitude":
        y *= 1e160
    elif rule == "y centered":
        y += 1.0
    else:
        X[:, 0] += 1.0


class TestOlsFit:
    def test_single_column_hand_solution(self, hand_dataset):
        # 1-d normal equation: beta = (x.y)/(x.x) = 3/2
        fit = ols_fit(hand_dataset, Subset((1,)))
        assert fit.beta_hat == pytest.approx([1.5], abs=1e-12)
        assert fit.sse == pytest.approx(1.5, abs=1e-12)
        assert fit.df == 1
        assert fit.sigma_hat_sq == pytest.approx(1.5, abs=1e-12)

    def test_empty_subset_sse_is_squared_norm(self, hand_dataset):
        fit = ols_fit(hand_dataset, Subset())
        assert fit.sse == pytest.approx(6.0)
        assert fit.df == 2
        assert fit.beta_hat.size == 0

    def test_exact_fit_in_column_span(self):
        data = Dataset(y=[-1.0, 0.0, 1.0], X=np.array([[1.0], [0.0], [-1.0]]))
        fit = ols_fit(data, Subset((1,)))
        assert fit.beta_hat == pytest.approx([-1.0], abs=1e-14)
        assert fit.sse == pytest.approx(0.0, abs=1e-28)

    def test_insufficient_df(self):
        data = Dataset(
            y=[1.0, 0.0, -1.0],
            X=np.array([[1.0, 0.5], [0.0, -1.0], [-1.0, 0.5]]),
        )
        with pytest.raises(ValueError, match="degrees of freedom"):
            ols_fit(data, Subset((1, 2)))

    def test_rank_deficient_duplicate_column(self, rng):
        col = rng.standard_normal(10)
        col -= col.mean()
        other = rng.standard_normal(10)
        other -= other.mean()
        data = Dataset(y=np.zeros(10), X=np.column_stack([col, col, other]))
        with pytest.raises(PostselectError, match="collinear"):
            ols_fit(data, Subset((1, 2)))
        ols_fit(data, Subset((1, 3)))  # independent pair is fine

    @pytest.mark.parametrize("stack", [1, 13])
    def test_stacked_rows_equal_one_dataset_fits(self, rng, stack):
        # each row of a stacked fit, at every subset size from empty to p,
        # has the bits of the one-dataset QR fit written out below; the rows
        # of one call fit one subset, or each its own subset of one size
        datasets = [
            random_centered_dataset(rng, 30, 6, beta=rng.standard_normal(6), rho=0.5)
            for _ in range(stack)
        ]
        # the rows gather from one [X | y] array, in an order of their own
        block = np.array([d.xy for d in datasets])
        order = rng.permutation(stack)
        for k in range(7):
            one = Subset.of(rng.choice(6, size=k, replace=False) + 1)
            each = [Subset.of(rng.choice(6, size=k, replace=False) + 1) for _ in datasets]
            for subsets in ([one] * stack, each):
                positions = np.array([s.positions for s in subsets]).reshape(stack, k)
                fit = ols_fit_stack(block, order, positions)
                assert fit.df == 30 - k - 1 and not fit.collinear.any()
                fitted = [datasets[i] for i in order]
                rows = zip(fitted, subsets, fit.beta[:, :, 0], fit.r, fit.sse)
                for data, s, beta_hat, r_factor, sse in rows:
                    xs = data.X[:, s.positions]
                    q, r = np.linalg.qr(xs)
                    beta = np.linalg.solve(r, q.T @ data.y)
                    resid = data.y - xs @ beta
                    assert np.array_equal(beta_hat, beta)
                    assert sse == float(resid @ resid)
                    assert np.array_equal(r_factor, r)
                    single = ols_fit(data, s)
                    assert np.array_equal(single.beta_hat, beta) and single.sse == sse

    def test_collinear_dataset_is_reported_not_raised(self, rng):
        # the middle dataset repeats a column: the stack marks it and still
        # fits its neighbours bit for bit, while the one-dataset fit raises
        datasets = [random_centered_dataset(rng, 10, 3) for _ in range(3)]
        block = np.array([d.xy for d in datasets])
        block[1, :, 1] = block[1, :, 0]
        fit = ols_fit_stack(block, np.arange(3), np.array([[0, 1]] * 3))
        assert fit.collinear.tolist() == [False, True, False]
        assert np.isfinite(fit.sse).all()
        for i in (0, 2):
            single = ols_fit(datasets[i], Subset((1, 2)))
            assert np.array_equal(fit.beta[i, :, 0], single.beta_hat) and fit.sse[i] == single.sse
        message = r"^columns of subset \{1,2\} are numerically collinear$"
        with pytest.raises(PostselectError, match=message):
            ols_fit(Dataset(y=block[1, :, -1], X=block[1, :, :-1]), Subset((1, 2)))

    def test_out_of_range_index(self, hand_dataset):
        with pytest.raises(ValueError, match="beyond"):
            ols_fit(hand_dataset, Subset((2,)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(7, 13))
        p = int(rng.integers(2, 6))
        data = random_centered_dataset(rng, n, p)
        k = int(rng.integers(0, min(4, p) + 1))
        s = Subset.of(rng.choice(p, size=k, replace=False) + 1)
        fit = ols_fit(data, s)
        beta_ne, sse_ne = normal_equations_fit(data, s)
        assert fit.beta_hat == pytest.approx(beta_ne, abs=1e-8)
        assert fit.sse == pytest.approx(sse_ne, abs=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_residual_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 25, 6)
        s = Subset((1, 3, 5))
        fit = ols_fit(data, s)
        xs = data.X[:, s.positions]
        grad = xs.T @ (data.y - xs @ fit.beta_hat)
        assert np.abs(grad).max() < 1e-8

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sigma_hat_df_identity_and_sse_bound(self, seed):
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 30, 8)
        k = int(rng.integers(0, 7))
        s = Subset.of(rng.choice(8, size=k, replace=False) + 1)
        fit = ols_fit(data, s)
        assert fit.sigma_hat_sq * fit.df == pytest.approx(fit.sse, rel=1e-12)
        assert fit.sse <= float(data.y @ data.y) * (1 + 1e-12)


class TestSseMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_larger_subset_never_increases_sse(self, seed):
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 24, 7)
        small = Subset.of(rng.choice(7, size=2, replace=False) + 1)
        extra = [i for i in range(1, 8) if i not in small.indices]
        big = Subset.of(small.indices + tuple(rng.choice(extra, size=2, replace=False)))
        sse_small = ols_fit(data, small).sse
        sse_big = ols_fit(data, big).sse
        assert sse_big <= sse_small * (1 + 1e-10)


class TestSseDecomposition:
    """The nested-pair SSE quantities, as theorem_report computes them."""

    def test_hand_example_from_empty(self, hand_dataset):
        dec = theorem_report(hand_dataset, Subset(), Subset((1,)), AIC)
        assert dec.sse_star == pytest.approx(6.0)
        assert dec.sse_hat == pytest.approx(1.5)
        assert dec.r_n == pytest.approx(0.75, abs=1e-12)
        # F = ((6 - 1.5) / 1) / (1.5 / (3 - 1 - 1))
        assert dec.f_n == pytest.approx(3.0, abs=1e-12)

    def test_no_improvement_gives_zero_r_and_f(self):
        # second column constructed orthogonal to the first fit's residual
        x = np.array(
            [[1.0, 2.0], [0.0, -1.0], [-1.0, 0.0], [0.0, -1.0]]
        )
        y = np.array([1.0, 2.0, -1.0, -2.0])
        data = Dataset(y=y, X=x)
        dec = theorem_report(data, Subset((1,)), Subset((1, 2)), AIC)
        assert dec.sse_hat == pytest.approx(dec.sse_star, rel=1e-14)
        assert dec.r_n == pytest.approx(0.0, abs=1e-14)
        assert dec.f_n == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_identity_against_independent_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 20, 6)
        small = Subset.of(rng.choice(6, size=2, replace=False) + 1)
        extra = [i for i in range(1, 7) if i not in small.indices]
        big = Subset.of(small.indices + (int(rng.choice(extra)),))
        dec = theorem_report(data, small, big, AIC)
        _, sse_small = normal_equations_fit(data, small)
        _, sse_big = normal_equations_fit(data, big)
        assert dec.sse_hat == pytest.approx((1.0 - dec.r_n) * dec.sse_star, rel=1e-12)
        assert dec.sse_star == pytest.approx(sse_small, rel=1e-9)
        assert dec.sse_hat == pytest.approx(sse_big, rel=1e-9)
        assert -1e-15 <= dec.r_n <= 1.0 + 1e-15

    def test_zero_sse_raises(self):
        data = Dataset(y=[0.0, 0.0, 0.0], X=np.array([[1.0], [0.0], [-1.0]]))
        with pytest.raises(PostselectError, match="is zero"):
            theorem_report(data, Subset(), Subset((1,)), AIC)


def test_public_results_compare_and_hash():
    # arrays are the whole value of a Dataset, a QueryPoint and a GeneratedData,
    # so they compare by identity; a fit compares by its subset, SSE and df
    rng = np.random.default_rng(0)
    y, x = rng.standard_normal(10), rng.standard_normal((10, 3))
    d1, d2 = centered_dataset(y, x)[0], centered_dataset(y, x)[0]
    assert d1 == d1 and d1 != d2 and len({d1, d2}) == 2
    q1, q2 = QueryPoint(np.ones(3), True), QueryPoint(np.ones(3), True)
    assert q1 == q1 and q1 != q2 and len({q1, q2}) == 2
    g1 = generate_dataset(ExperimentConfig(), RngStream(1, 0))
    g2 = GeneratedData(g1.data, g1.raw_column_means, g1.query_x_raw.copy())
    assert g1 == g1 and g1 != g2 and len({g1, g2}) == 2
    for s in (Subset(), Subset((1,)), Subset((1, 3))):
        f1, f2 = ols_fit(d1, s), ols_fit(d2, s)
        assert f1 == f2 and hash(f1) == hash(f2)
        assert f1 != ols_fit(d1, Subset((2,)))
    _, records = run_experiment(ExperimentConfig(reps=2, workers=1))
    s1, s2 = summarize(records, 0.0, 42), summarize(records, 0.0, 42)
    assert s1 == s2 and hash(s1) == hash(s2)
