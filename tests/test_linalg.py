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
    select,
    theorem_report,
)
from postselect.errors import PostselectError

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

    def test_rejects_length_mismatch_and_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(y=[1.0, -1.0], X=np.array([[1.0], [0.0], [-1.0]]))
        with pytest.raises(ValueError):
            Dataset(y=[np.nan, 0.0, 0.0], X=np.array([[1.0], [0.0], [-1.0]]))

    def test_magnitude_bound_keeps_every_sse_finite(self, rng):
        # every value at the bound: no sum of squares in the QR or the sweep
        # overflows (an overflow would warn, and pytest makes that an error)
        n = 20
        bound = np.sqrt(np.finfo(np.float64).max / (4 * n))
        y = bound * np.resize([1.0, -1.0], n)
        x = rng.standard_normal((n, 3))
        x -= x.mean(axis=0)
        x *= bound / np.abs(x).max()
        result = select(Dataset(y=y, X=x), AIC)
        assert np.all(np.isfinite(result.scores))
        above = np.nextafter(bound, np.inf)
        with pytest.raises(ValueError, match="magnitude"):
            Dataset(y=above * np.resize([1.0, -1.0], n), X=x)
        with pytest.raises(ValueError, match="magnitude"):
            centered_dataset(rng.standard_normal(n) * 1e160, x)

    def test_arrays_are_frozen(self, hand_dataset):
        with pytest.raises(ValueError):
            hand_dataset.y[0] = 5.0

    def test_centered_dataset_records_means(self, rng):
        x_raw = rng.standard_normal((20, 3)) + 7.0
        y_raw = rng.standard_normal(20) - 2.0
        data, y_mean, col_means = centered_dataset(y_raw, x_raw)
        assert y_mean == pytest.approx(y_raw.mean())
        assert col_means == pytest.approx(x_raw.mean(axis=0))
        assert abs(data.y.mean()) < 1e-10
        assert np.abs(data.X.mean(axis=0)).max() < 1e-10


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
        # F = ((6 - 1.5) / 1) / (1.5 / (3 - 1))
        assert dec.f_n == pytest.approx(6.0, abs=1e-12)

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
