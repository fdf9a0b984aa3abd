import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postselect import (
    ConfidenceInterval,
    Dataset,
    QueryPoint,
    Subset,
    covers,
    mean_response_ci,
    ols_fit,
    student_t_quantile,
    true_mean_response,
)

from oracles import ar1_rows_cholesky, cauchy_quantile, random_centered_dataset


class TestMeanResponseCi:
    def test_hand_instance(self, hand_dataset):
        # center 1.5, quadratic form 1/2, sigma sqrt(1.5), t_1(0.975) Cauchy
        fit = ols_fit(hand_dataset, Subset((1,)))
        ci = mean_response_ci(
            hand_dataset, fit, QueryPoint(x=[1.0], centered=True), alpha=0.05
        )
        t_crit = cauchy_quantile(0.975)
        expected_half = t_crit * math.sqrt(1.5) * math.sqrt(0.5)
        assert ci.center == pytest.approx(1.5, abs=1e-12)
        assert ci.half_width == pytest.approx(expected_half, abs=1e-6)
        assert ci.half_width == pytest.approx(11.0039, abs=1e-3)
        assert ci.lo == pytest.approx(-9.5039, abs=1e-3)
        assert ci.hi == pytest.approx(12.5039, abs=1e-3)

    def test_median_critical_value_collapses_interval(self, hand_dataset):
        # as alpha -> 1 the quantile argument approaches 1/2, where the
        # critical value is exactly zero
        assert student_t_quantile(1, 0.5) == 0.0
        fit = ols_fit(hand_dataset, Subset((1,)))
        query = QueryPoint(x=[1.0], centered=True)
        ci = mean_response_ci(hand_dataset, fit, query, alpha=1.0 - 1e-9)
        assert ci.half_width == pytest.approx(0.0, abs=1e-7)
        assert ci.lo == pytest.approx(ci.center, abs=1e-7)

    def test_empty_subset_gives_zero_interval(self, hand_dataset):
        # no regressors: the estimate is 0 and its quadratic form is empty
        fit = ols_fit(hand_dataset, Subset())
        ci = mean_response_ci(hand_dataset, fit, QueryPoint(x=[1.0], centered=True), alpha=0.05)
        assert ci.lo == ci.hi == ci.center == 0.0

    def test_alpha_validation(self, hand_dataset):
        fit = ols_fit(hand_dataset, Subset((1,)))
        query = QueryPoint(x=[1.0], centered=True)
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="alpha"):
                mean_response_ci(hand_dataset, fit, query, alpha=alpha)

    def test_dimension_and_centering_checks(self, hand_dataset):
        fit = ols_fit(hand_dataset, Subset((1,)))
        with pytest.raises(ValueError, match="components"):
            mean_response_ci(
                hand_dataset, fit, QueryPoint(x=[1.0, 2.0], centered=True), 0.05
            )
        with pytest.raises(ValueError, match="centered"):
            mean_response_ci(
                hand_dataset, fit, QueryPoint(x=[1.0], centered=False), 0.05
            )

    def test_fit_of_other_dimensions_is_refused(self, hand_dataset, rng):
        fit = ols_fit(random_centered_dataset(rng, 6, 1), Subset((1,)))
        with pytest.raises(ValueError, match="dimensions"):
            mean_response_ci(hand_dataset, fit, QueryPoint(x=[1.0], centered=True), 0.05)

    def test_width_spans_both_half_widths(self, hand_dataset):
        fit = ols_fit(hand_dataset, Subset((1,)))
        ci = mean_response_ci(hand_dataset, fit, QueryPoint(x=[1.0], centered=True), 0.05)
        assert ci.width == ci.hi - ci.lo == pytest.approx(2.0 * ci.half_width, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_quadratic_form_matches_explicit_inverse(self, seed):
        rng = np.random.default_rng(seed)
        data = random_centered_dataset(rng, 15, 4)
        s = Subset((1, 3))
        fit = ols_fit(data, s)
        x = QueryPoint(x=rng.standard_normal(4), centered=True)
        ci = mean_response_ci(data, fit, x, alpha=0.05)
        xs = x.x[s.positions]
        Xs = data.X[:, s.positions]
        quad = float(xs @ np.linalg.inv(Xs.T @ Xs) @ xs)
        expected_half = (
            student_t_quantile(fit.df, 0.975) * fit.sigma_hat * math.sqrt(quad)
        )
        assert ci.half_width == pytest.approx(expected_half, rel=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_fit_factor_equals_fresh_factorization(self, seed):
        # the interval reuses the fit's R; a separate R-only QR of X_S must
        # give the very same half-width
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        p = int(rng.integers(2, 7))
        data = random_centered_dataset(rng, n, p)
        k = int(rng.integers(1, p + 1))
        s = Subset.of(rng.choice(p, size=k, replace=False) + 1)
        fit = ols_fit(data, s)
        query = QueryPoint(x=rng.standard_normal(p), centered=True)
        ci = mean_response_ci(data, fit, query, alpha=0.05)
        r = np.linalg.qr(data.X[:, s.positions], mode="r")
        w = np.linalg.solve(r.T, query.x[s.positions])
        expected_half = (
            student_t_quantile(fit.df, 0.975) * fit.sigma_hat * math.sqrt(float(w @ w))
        )
        assert ci.half_width == expected_half

    def test_half_width_nonincreasing_in_alpha(self, rng):
        data = random_centered_dataset(rng, 25, 5)
        fit = ols_fit(data, Subset((1, 2)))
        query = QueryPoint(x=rng.standard_normal(5), centered=True)
        widths = [
            mean_response_ci(data, fit, query, alpha).half_width
            for alpha in (0.01, 0.05, 0.1, 0.5, 0.9)
        ]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_half_width_proportional_to_sigma_hat(self, rng):
        data = random_centered_dataset(rng, 25, 4)
        scaled = Dataset(y=3.0 * data.y, X=data.X)
        s = Subset((1, 4))
        query = QueryPoint(x=rng.standard_normal(4), centered=True)
        ci = mean_response_ci(data, ols_fit(data, s), query, 0.05)
        ci_scaled = mean_response_ci(scaled, ols_fit(scaled, s), query, 0.05)
        assert ci_scaled.half_width == pytest.approx(3.0 * ci.half_width, rel=1e-10)

    def test_oracle_coverage_reference_configuration(self):
        # under the true subset the interval is exact; check the empirical
        # rate over a moderate number of replications
        beta = np.zeros(10)
        beta[:3] = [1.0, 2.0, 3.0]
        s_star = Subset((1, 2, 3))
        hits = 0
        reps = 300
        for i in range(reps):
            rng = np.random.default_rng(50_000 + i)
            z = rng.standard_normal((51, 10))
            x_all = ar1_rows_cholesky(z, 0.5)
            x_raw, x_query = x_all[:50], x_all[50]
            y_raw = x_raw @ beta + rng.standard_normal(50)
            col_means = x_raw.mean(axis=0)
            data = Dataset(y=y_raw - y_raw.mean(), X=x_raw - col_means)
            query = QueryPoint(x=x_query - col_means, centered=True)
            ci = mean_response_ci(data, ols_fit(data, s_star), query, alpha=0.05)
            hits += covers(ci, true_mean_response(query, beta))
        # 0.95 +/- 3.5 binomial SEs at 300 replications
        assert 0.91 <= hits / reps <= 0.99


class TestTrueMeanResponse:
    def test_zero_point(self):
        beta = np.array([1.0, 2.0, 3.0, 0.0])
        assert true_mean_response(QueryPoint(np.zeros(4), True), beta) == 0.0

    def test_unit_vector_picks_one_coefficient(self):
        beta = np.array([1.0, 2.0, 3.0] + [0.0] * 7)
        e2 = np.zeros(10)
        e2[1] = 1.0
        assert true_mean_response(QueryPoint(e2, True), beta) == 2.0

    def test_zero_coefficients_drop_out(self, rng):
        beta = np.zeros(8)
        beta[:3] = [1.0, 2.0, 3.0]
        x = rng.standard_normal(8)
        full = true_mean_response(QueryPoint(x, True), beta)
        assert full == pytest.approx(float(x[:3] @ beta[:3]), rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="components"):
            true_mean_response(QueryPoint([1.0, 2.0], True), np.array([1.0]))


class TestCovers:
    @pytest.fixture
    def unit_interval(self):
        return ConfidenceInterval(
            center=0.0, half_width=1.0, lo=-1.0, hi=1.0, alpha=0.05, subset=Subset((1,))
        )

    def test_interior(self, unit_interval):
        assert covers(unit_interval, 0.0)

    def test_closed_endpoints(self, unit_interval):
        assert covers(unit_interval, 1.0)
        assert covers(unit_interval, -1.0)

    def test_just_outside(self, unit_interval):
        assert not covers(unit_interval, 1.0000001)
        assert not covers(unit_interval, -1.0000001)
