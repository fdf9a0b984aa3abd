import math
from statistics import NormalDist

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
from postselect.distributions import ar1_rows, stream_generators, stream_keys
from postselect.errors import PostselectError

from oracles import (
    ar1_covariance,
    ar1_rows_cholesky,
    cauchy_quantile,
    normal_cdf,
    t1_cdf,
    t2_cdf,
    t2_quantile,
)


# Student-t quantiles q with P(T > q) = 1 - (1 - 10^-k), k = 4..14, from
# scipy.stats.t.isf (scipy 1.17); mpmath's betainc at 40 digits puts their
# tails within 1e-14 of the target.
LARGE_DF_QUANTILES = {
    10**4: [
        3.7203958691176684, 4.266937665767679, 4.756229685050958, 5.202983638365324,
        5.616563428045506, 6.003355452553619, 6.3679413387372295, 6.713737739384998,
        7.0433746983484715, 7.358871684696792, 7.662132224557133,
    ],
    10**5: [
        3.7191543826413724, 4.265095403182341, 4.753704716385476, 5.199701988462917,
        5.6124571740122216, 5.998361466274278, 6.362000407133168, 6.706793921326257,
        7.035374828293038, 7.34976518936207, 7.65186973966039,
    ],
    10**6: [
        3.719030274762571, 4.264911254070676, 4.7534523482738695, 5.199374020914423,
        5.612046833499978, 5.997862460304971, 6.36140683616972, 6.7061002143939,
        7.034575693273216, 7.348855594561493, 7.650844775643626,
    ],
}


class TestRngStream:
    def test_same_seed_same_substream_bitwise_identical(self):
        a = RngStream(seed=99, substream=3).standard_normal(1000)
        b = RngStream(seed=99, substream=3).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_repr_names_the_pair(self):
        assert repr(RngStream(seed=99, substream=3)) == "RngStream(seed=99, substream=3)"

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
        for seed in (2.9, True):  # not truncated to seed 2 or read as seed 1
            with pytest.raises(ValueError, match=f"^seed must be a 64-bit unsigned integer, got {seed}$"):
                RngStream(seed)


# seeds of one and of two 32-bit entropy words, the largest seed among them
KEY_SEEDS = [0, 7, 42, 2**32 + 5, 123456789012345, 2**64 - 1]


def numpy_generator(seed: int, substream: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(substream,))
    return np.random.Generator(np.random.Philox(seq))


def numpy_keys(seed: int, substreams) -> np.ndarray:
    return np.array([
        np.random.SeedSequence(entropy=seed, spawn_key=(r,)).generate_state(2, np.uint64)
        for r in substreams
    ])


class TestStreamKeys:
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_keys_equal_numpy_seed_sequence(self, seed):
        substreams = [*range(3000), 2**31, 2**32 - 1]
        keys = stream_keys(seed, substreams)
        assert keys.dtype == np.uint64 and keys.shape == (len(substreams), 2)
        assert np.array_equal(keys, numpy_keys(seed, substreams))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        substreams=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
    )
    def test_keys_equal_numpy_for_any_seed(self, seed, substreams):
        assert np.array_equal(stream_keys(seed, substreams), numpy_keys(seed, substreams))

    def test_no_substreams_no_keys(self):
        assert stream_keys(42, range(0)).shape == (0, 2)

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_stream_draws_what_numpy_seed_sequence_draws(self, seed):
        for r in (0, 1, 999):
            a, b = RngStream(seed, r).standard_normal(300), numpy_generator(seed, r).standard_normal(300)
            assert np.array_equal(a, b)

    def test_substream_limit_is_2_to_the_32(self):
        # numpy's spawn key takes a second word from 2**32 on: refused, never
        # keyed as if it had one
        last = RngStream(3, 2**32 - 1).standard_normal(50)
        assert np.array_equal(last, numpy_generator(3, 2**32 - 1).standard_normal(50))
        with pytest.raises(ValueError, match=r"substream must lie in \[0, 2\*\*32\), got 4294967296"):
            RngStream(3, 2**32)
        with pytest.raises(ValueError, match=r"got 4294967296"):
            stream_keys(3, [5, 2**32, 6])
        with pytest.raises(ValueError, match=r"got -1"):
            stream_keys(3, [5, -1])

    def test_substream_containers_give_identical_keys(self):
        keys = stream_keys(9, [5, 6, 7, 8])
        for substreams in (
            range(5, 9), np.arange(5, 9, dtype=np.int32), np.arange(5, 9, dtype=np.uint64),
        ):
            assert np.array_equal(stream_keys(9, substreams), keys)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: stream_keys(1, [2.5]),
            lambda: stream_keys(1, [2, 2.5]),
            lambda: stream_keys(1, np.array([2.5])),
            lambda: stream_keys(1, np.array([True])),
            lambda: stream_keys(1, [4, True]),
            lambda: RngStream(1, 2.5),
            lambda: RngStream(1, True),
        ],
        ids=[
            "list", "mixed-list", "float-array", "bool-array", "bool-in-list", "stream", "bool-stream",
        ],
    )
    def test_non_integer_substream_is_refused(self, make):
        # neither truncated to substream 2 nor read as substream 1
        message = r"^substream must lie in \[0, 2\*\*32\), got (2\.5|True)$"
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("substream", [0, 2**32 - 1])
    def test_stream_draws_what_stream_generators_yields(self, seed, substream):
        gen = next(stream_generators(seed, [substream]))
        draws = RngStream(seed, substream).standard_normal(77)
        assert np.array_equal(draws, gen.standard_normal(77))

    def test_rekeyed_generator_draws_what_a_fresh_stream_draws(self):
        # a row of 7 normals leaves Philox's buffer of 4 words partly used, so
        # a re-key that kept the buffer would shift the next row's draws
        substreams, sizes = [5, 6, 0, 2**32 - 1, 5, 9], [7, 254, 7, 7, 33, 1]
        streams = stream_generators(42, substreams)
        for i, (gen, r, size) in enumerate(zip(streams, substreams, sizes)):
            assert np.array_equal(gen.standard_normal(size), RngStream(42, r).standard_normal(size))
            if i == 0:
                assert 0 < gen.bit_generator.state["buffer_pos"] < 4


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
        draws = ar1_rows(RngStream(7).standard_normal((10**5, 6)), 0.0)
        corr = np.corrcoef(draws, rowvar=False)
        off_diag = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off_diag).max() < 0.02

    def test_rho_half_lag_correlations(self):
        draws = ar1_rows(RngStream(11).standard_normal((10**5, 10)), 0.5)
        corr = np.corrcoef(draws, rowvar=False)
        lag1 = np.array([corr[i, i + 1] for i in range(9)])
        lag2 = np.array([corr[i, i + 2] for i in range(8)])
        assert np.abs(lag1 - 0.5).max() < 0.02
        assert np.abs(lag2 - 0.25).max() < 0.02

    def test_recursion_covariance_matches_cholesky_analytically(self):
        # the recursion is linear in z; its transfer matrix must satisfy
        # A A' = Sigma, the same Gram identity the Cholesky factor satisfies
        transfer = ar1_rows(np.eye(8), 0.5).T
        sigma = ar1_covariance(8, 0.5)
        assert np.abs(transfer @ transfer.T - sigma).max() < 1e-12
        chol = np.linalg.cholesky(sigma)
        assert np.abs(chol @ chol.T - sigma).max() < 1e-12

    def test_recursion_vs_cholesky_empirical_covariance(self):
        via_recursion = ar1_rows(RngStream(21).standard_normal((10**5, 5)), 0.5)
        z = RngStream(22).standard_normal((10**5, 5))
        via_cholesky = ar1_rows_cholesky(z, 0.5)
        cov_a = np.cov(via_recursion, rowvar=False)
        cov_b = np.cov(via_cholesky, rowvar=False)
        assert np.abs(cov_a - cov_b).max() < 0.02
        assert np.abs(cov_a - ar1_covariance(5, 0.5)).max() < 0.02


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

    def test_fraction_that_does_not_converge_raises(self):
        # the t quantile no longer reaches a shape this large (df = 10^300)
        with pytest.raises(PostselectError, match="failed to converge"):
            regularized_incomplete_beta(5e299, 0.5, 0.9)


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

    def test_nan_gives_nan(self):
        assert math.isnan(student_t_cdf(5, math.nan))

    @pytest.mark.parametrize("df", [10**7, 10**10, 10**17, 10**300])
    @pytest.mark.parametrize("prob", [1e-10, 0.025, 0.9])
    def test_round_trip_at_very_large_df(self, df, prob):
        # the continued fraction read df + t * t as df and returned 0.5 at
        # df = 10^17 and 10^300
        q = student_t_quantile(df, prob)
        assert student_t_cdf(df, q) == pytest.approx(prob, rel=1e-12, abs=0)

    @pytest.mark.parametrize("t", [0.5, 1.28, 1.96, 4.0, 6.36, 10.0])
    def test_expansion_meets_the_fraction_at_df_1e7(self, t):
        # 10^7 - 1 is the continued fraction, 10^7 the expansion; their tails
        # differ by the fraction's own error, at most 2.4e-10 relative here
        fraction, expansion = (student_t_cdf(df, -t) for df in (10**7 - 1, 10**7))
        assert expansion == pytest.approx(fraction, rel=1e-9, abs=0)
        fraction, expansion = (student_t_cdf(df, t) for df in (10**7 - 1, 10**7))
        assert expansion == pytest.approx(fraction, abs=1e-11)

    # Phi(t) from mpmath's ncdf at 40 digits; at t = -30 the rounding of
    # t / sqrt(2) alone moves erfc by about t^2 * 2^-53 = 1e-13 relative
    @pytest.mark.parametrize(
        "t,phi",
        [(-30.0, 4.906713927148187e-198), (-8.0, 6.220960574271784e-16),
         (-1.28, 0.10027256795444209), (0.0, 0.5), (1.28, 0.8997274320455579)],
    )
    def test_normal_limit_keeps_the_tail(self, t, phi):
        # statistics.NormalDist().cdf(-30) and 1 - cdf(30) both read 0.0
        assert student_t_cdf(10**300, t) == pytest.approx(phi, rel=1e-12, abs=0)

    def test_tail_beyond_40_is_below_the_smallest_float(self):
        assert student_t_cdf(10**7, -40.0) == 0.0 and student_t_cdf(10**7, 40.0) == 1.0
        assert 0.0 < student_t_cdf(10**7, -38.0) < 1e-300


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

    @pytest.mark.parametrize(
        "df,prob,want",
        [(10**10, 0.975, 1.959963985), (10**17, 0.9, 1.281551566), (10**300, 0.9, 1.281551566)],
    )
    def test_cornish_fisher_at_very_large_df(self, df, prob, want):
        # the continued fraction gave 1.959964344 and 2.828427125 at the first
        # two, and did not converge at the third
        assert student_t_quantile(df, prob) == pytest.approx(want, rel=1e-9)
        assert student_t_quantile(df, 1.0 - prob) == -student_t_quantile(df, prob)

    @pytest.mark.parametrize("prob", [0.9, 0.975, 1.0 - 1e-6, 1e-10, 1e-300])
    def test_cornish_fisher_meets_the_solver_at_df_1e7(self, prob):
        # 10^7 - 1 is solved on the continued fraction, 10^7 expanded; the
        # two quantiles differ by about 1e-14 relative
        solved, expanded = (student_t_quantile(df, prob) for df in (10**7 - 1, 10**7))
        assert expanded == pytest.approx(solved, rel=1e-10)

    def test_cornish_fisher_keeps_a_small_tail(self):
        z = NormalDist().inv_cdf(1e-300)
        assert student_t_quantile(10**300, 1e-300) == pytest.approx(z, rel=1e-15)

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

    @pytest.mark.parametrize("tail", [1e-4, 1e-8, 1e-12, 1e-15])
    def test_tail_near_one_keeps_its_digits(self, tail):
        # 1 - cdf(t) has lost the tail's digits here, so the tail is solved for
        prob = 1.0 - tail
        assert student_t_quantile(2, prob) == pytest.approx(t2_quantile(prob), rel=1e-11)
        cauchy = 1.0 / math.tan(math.pi * (1.0 - prob))
        assert student_t_quantile(1, prob) == pytest.approx(cauchy, rel=1e-11)

    @pytest.mark.parametrize("df", sorted(LARGE_DF_QUANTILES))
    def test_tail_near_one_at_large_df(self, df):
        # at df = 10^6, lgamma(a + 1/2) - lgamma(a) cancels near 6e6 and
        # a log(x) amplifies the rounding of x by a = df / 2; both are avoided,
        # so the quantile's tail is exact to the 1e-11 it is solved to.  To
        # first order its tail error is pdf(q_ref) |q - q_ref|.
        for k, q_ref in enumerate(LARGE_DF_QUANTILES[df], start=4):
            prob = 1.0 - 10.0**-k
            tail = 1.0 - prob
            assert student_t_cdf(df, -q_ref) == pytest.approx(tail, rel=2e-11, abs=0)
            log_pdf = (
                math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
                - (df + 1) / 2 * math.log1p(q_ref * q_ref / df)
            )
            q = student_t_quantile(df, prob)
            assert math.exp(log_pdf) * abs(q - q_ref) <= 1e-11 * tail, (k, q, q_ref)

    @pytest.mark.parametrize("df", [1, 5, 46])
    @pytest.mark.parametrize("prob", [1e-15, 1e-17])
    def test_lower_tail_keeps_its_digits(self, df, prob):
        # prob is solved for as the tail itself, not as 1 - (1 - prob)
        q = student_t_quantile(df, prob)
        assert abs(student_t_cdf(df, q) - prob) <= 1e-11 * prob

    def test_quantile_at_one_minus_1e15(self):
        assert student_t_quantile(46, 1.0 - 1e-15) == pytest.approx(11.7314916, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_quantile(0, 0.5)
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_quantile(2.5, 0.5)
        for df in (math.inf, 10**400):  # no float holds them
            with pytest.raises(ValueError, match="degrees of freedom"):
                student_t_quantile(df, 0.9)
        with pytest.raises(ValueError, match="prob"):
            student_t_quantile(3, 0.0)
        with pytest.raises(ValueError, match="prob"):
            student_t_quantile(3, 1.0)

    def test_quantile_where_t_squared_overflows_is_refused(self):
        # the solver stopped at the overflow boundary, -1.34e154; the Cauchy
        # value is -3.18e159
        with pytest.raises(ValueError, match="overflows"):
            student_t_quantile(1, 1e-160)
        cauchy = -1.0 / math.tan(math.pi * 1e-150)
        assert student_t_quantile(1, 1e-150) == pytest.approx(cauchy, rel=1e-10)
