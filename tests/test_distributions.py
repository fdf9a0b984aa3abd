import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    RngStream,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)
from postselect.distributions import sample_ar1_rows

from oracles import (
    ar1_covariance,
    ar1_rows_cholesky,
    cauchy_quantile,
    normal_cdf,
    t1_cdf,
    t2_cdf,
    t2_quantile,
)


class TestRngStream:
    def test_same_seed_same_substream_bitwise_identical(self):
        a = RngStream(seed=99, substream=3).standard_normal(1000)
        b = RngStream(seed=99, substream=3).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = RngStream(seed=99, substream=0).standard_normal(100)
        b = RngStream(seed=99, substream=1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngStream(seed=-1)
        with pytest.raises(ValueError):
            RngStream(seed=2**64)
        with pytest.raises(ValueError):
            RngStream(seed=1, substream=-2)

    def test_algorithm_name(self):
        assert RngStream(0).algorithm == "philox4x64"


class TestStdNormal:
    def test_moments_and_tail(self):
        rng = RngStream(seed=2024)
        draws = rng.standard_normal(10**6)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01
        frac = float(np.mean(draws < 1.96))
        assert abs(frac - normal_cdf(1.96)) < 0.002


class TestAr1Sampling:
    def test_rho_zero_components_independent(self):
        draws = sample_ar1_rows(RngStream(7), 10**5, 6, 0.0)
        corr = np.corrcoef(draws, rowvar=False)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off_diag).max() < 0.02

    def test_rho_half_lag_correlations(self):
        draws = sample_ar1_rows(RngStream(11), 10**5, 10, 0.5)
        corr = np.corrcoef(draws, rowvar=False)
        lag1 = np.array([corr[i, i + 1] for i in range(9)])
        lag2 = np.array([corr[i, i + 2] for i in range(8)])
        assert np.abs(lag1 - 0.5).max() < 0.02
        assert np.abs(lag2 - 0.25).max() < 0.02

    def test_recursion_covariance_matches_cholesky_analytically(self):
        # the recursion is linear in z; its transfer matrix must satisfy
        # A A' = Sigma, the same Gram identity the Cholesky factor satisfies
        transfer = np.column_stack(
            [
                sample_ar1_rows(_FixedZ(np.eye(8)[j : j + 1]), 1, 8, 0.5)[0]
                for j in range(8)
            ]
        )
        sigma = ar1_covariance(8, 0.5)
        assert np.abs(transfer @ transfer.T - sigma).max() < 1e-12
        chol = np.linalg.cholesky(sigma)
        assert np.abs(chol @ chol.T - sigma).max() < 1e-12

    def test_recursion_vs_cholesky_empirical_covariance(self):
        via_recursion = sample_ar1_rows(RngStream(21), 10**5, 5, 0.5)
        z = RngStream(22).standard_normal((10**5, 5))
        via_cholesky = ar1_rows_cholesky(z, 0.5)
        cov_a = np.cov(via_recursion, rowvar=False)
        cov_b = np.cov(via_cholesky, rowvar=False)
        assert np.abs(cov_a - cov_b).max() < 0.02
        assert np.abs(cov_a - ar1_covariance(5, 0.5)).max() < 0.02


class _FixedZ:
    """Stub stream returning a preset matrix, for transfer-matrix extraction."""

    def __init__(self, z):
        self._z = np.asarray(z, dtype=float)

    def standard_normal(self, size):
        assert self._z.shape == tuple(np.atleast_1d(size))
        return self._z.copy()


class TestIncompleteBeta:
    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_reflection_symmetry(self):
        for a, b, x in [(0.5, 23.0, 0.4), (2.0, 2.0, 0.125), (5.0, 0.5, 0.9)]:
            left = regularized_incomplete_beta(a, b, x)
            right = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert left == pytest.approx(right, abs=1e-14)

    def test_uniform_case_is_identity(self):
        for x in [0.1, 0.25, 0.7, 0.99]:
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
                x, abs=1e-14
            )

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)


class TestStudentTCdf:
    def test_center_and_symmetry(self):
        assert student_t_cdf(5, 0.0) == pytest.approx(0.5, abs=1e-15)
        for t in [0.3, 1.7, 9.0]:
            assert student_t_cdf(7, -t) == pytest.approx(
                1.0 - student_t_cdf(7, t), abs=1e-14
            )

    def test_matches_closed_forms(self):
        for t in [-25.0, -2.0, -0.4, 0.0, 0.7, 3.3, 100.0]:
            assert student_t_cdf(1, t) == pytest.approx(t1_cdf(t), abs=1e-14)
            assert student_t_cdf(2, t) == pytest.approx(t2_cdf(t), abs=1e-14)

    def test_invalid_df(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_cdf(0, 1.0)


class TestStudentTQuantile:
    def test_median_is_zero(self):
        assert student_t_quantile(1, 0.5) == 0.0
        assert student_t_quantile(46, 0.5) == 0.0

    def test_cauchy_closed_form(self):
        assert student_t_quantile(1, 0.975) == pytest.approx(
            cauchy_quantile(0.975), abs=1e-6
        )
        assert student_t_quantile(1, 0.975) == pytest.approx(12.7062047, abs=1e-6)

    def test_df2_closed_form(self):
        assert student_t_quantile(2, 0.975) == pytest.approx(
            t2_quantile(0.975), abs=1e-6
        )
        assert student_t_quantile(2, 0.975) == pytest.approx(4.3026527, abs=1e-6)

    def test_large_df_approaches_normal(self):
        assert student_t_quantile(10**6, 0.975) == pytest.approx(1.959964, abs=1e-3)

    @settings(max_examples=80, deadline=None)
    @given(
        df=st.sampled_from([1, 2, 3, 5, 12, 46, 100]),
        prob=st.floats(0.001, 0.999),
    )
    def test_antisymmetry(self, df, prob):
        q = student_t_quantile(df, prob)
        q_mirror = student_t_quantile(df, 1.0 - prob)
        assert abs(q + q_mirror) <= 1e-12 * max(1.0, abs(q))

    @settings(max_examples=60, deadline=None)
    @given(
        df=st.sampled_from([1, 2, 5, 46, 100]),
        lo=st.floats(0.01, 0.97),
        gap=st.floats(0.001, 0.02),
    )
    def test_strictly_monotone_in_prob(self, df, lo, gap):
        assert student_t_quantile(df, lo) < student_t_quantile(df, lo + gap)

    def test_round_trip_grid(self):
        probs = np.arange(0.005, 0.9951, 0.005)
        for df in (1, 2, 5, 46, 100):
            for prob in probs:
                q = student_t_quantile(df, float(prob))
                assert abs(student_t_cdf(df, q) - prob) <= 1e-10

    def test_extreme_tail(self):
        q = student_t_quantile(1, 1.0 - 1e-12)
        assert abs(student_t_cdf(1, q) - (1.0 - 1e-12)) <= 1e-13
        assert q > 1e10  # Cauchy tail: roughly 1 / (pi * (1 - p))

    def test_validation(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_quantile(0, 0.5)
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_quantile(2.5, 0.5)
        with pytest.raises(ValueError, match="prob"):
            student_t_quantile(3, 0.0)
        with pytest.raises(ValueError, match="prob"):
            student_t_quantile(3, 1.0)
