"""Independent oracle implementations used only by the tests.

These deliberately use different algorithms from the package: explicit
normal-equations solves instead of QR, a dense Cholesky factor instead of the
AR(1) recursion, closed-form distribution functions, and a plain-loop
brute-force subset search.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from postselect import Criterion, Dataset, Subset, TheoremReport

SSE_FLOOR = 1e-300

# Relative distance from exact equality within which a margin is a tie.
TIE_RTOL = 1e-12


def normal_equations_fit(data: Dataset, s: Subset) -> tuple[np.ndarray, float]:
    """Coefficients and SSE via an explicit (X'X)^-1 X'y solve."""
    if s.size == 0:
        return np.empty(0), float(data.y @ data.y)
    xs = data.X[:, s.positions]
    gram_inv = np.linalg.inv(xs.T @ xs)
    beta = gram_inv @ (xs.T @ data.y)
    resid = data.y - xs @ beta
    return beta, float(resid @ resid)


def score(sse: float, size: int, n: int, crit: Criterion) -> float:
    """The selection score ``n log(max(sse, floor)) + c_n size``, written out."""
    return n * math.log(max(sse, SSE_FLOOR)) + crit.c_n(n) * size


def brute_force_select(
    data: Dataset, crit: Criterion, size_cap: int | None = None
) -> tuple[Subset, dict[Subset, float]]:
    """Exhaustive search with normal-equations SSEs and the direct score formula."""
    n, p = data.n, data.p
    max_size = min(p if size_cap is None else size_cap, n - 2)
    table: dict[Subset, float] = {}
    for k in range(0, max_size + 1):
        for combo in itertools.combinations(range(1, p + 1), k):
            s = Subset(combo)
            if k and np.linalg.matrix_rank(data.X[:, s.positions]) < k:
                continue
            _, sse = normal_equations_fit(data, s)
            table[s] = score(sse, k, n, crit)
    best = min(table.items(), key=lambda kv: (kv[1], kv[0].size, kv[0].indices))
    return best[0], table


class PreferenceCheck(NamedTuple):
    """Dual evaluation of the same model preference.

    ``prefers_by_gamma`` compares the selection scores directly;
    ``prefers_by_rn`` compares the relative SSE reduction against
    ``1 - exp(-a_n * d_n)``.  The two agree except when either margin sits
    within floating-point distance of exact equality, flagged by ``is_tie``.
    """

    prefers_by_gamma: bool
    prefers_by_rn: bool
    is_tie: bool


def preference_check(report: TheoremReport, n: int, crit: Criterion) -> PreferenceCheck:
    """Whether the larger model of a strictly nested report wins, two ways."""
    g_star = score(report.sse_star, report.s_star.size, n, crit)
    g_hat = score(report.sse_hat, report.s_hat.size, n, crit)
    threshold = -math.expm1(-report.a_n * report.d_n)
    gamma_margin = abs(g_hat - g_star)
    rn_margin = abs(report.r_n - threshold)
    is_tie = gamma_margin <= TIE_RTOL * max(1.0, abs(g_hat), abs(g_star)) or (
        rn_margin <= TIE_RTOL * max(1.0, abs(report.r_n), abs(threshold))
    )
    return PreferenceCheck(
        prefers_by_gamma=g_hat < g_star,
        prefers_by_rn=report.r_n > threshold,
        is_tie=is_tie,
    )


def ar1_covariance(p: int, rho: float) -> np.ndarray:
    idx = np.arange(p)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def ar1_rows_cholesky(z: np.ndarray, rho: float) -> np.ndarray:
    """Correlated rows from iid normals through a dense Cholesky factor."""
    chol = np.linalg.cholesky(ar1_covariance(z.shape[1], rho))
    return z @ chol.T


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def cauchy_quantile(prob: float) -> float:
    """Student-t quantile closed form for df = 1."""
    return math.tan(math.pi * (prob - 0.5))


def t2_quantile(prob: float) -> float:
    """Student-t quantile closed form for df = 2."""
    return (2.0 * prob - 1.0) * math.sqrt(2.0 / (4.0 * prob * (1.0 - prob)))


def t1_cdf(t: float) -> float:
    return 0.5 + math.atan(t) / math.pi


def t2_cdf(t: float) -> float:
    return 0.5 * (1.0 + t / math.sqrt(2.0 + t * t))


def random_centered_dataset(
    rng: np.random.Generator, n: int, p: int, sigma: float = 1.0,
    beta: np.ndarray | None = None, rho: float = 0.0,
) -> Dataset:
    """A centered dataset with optional signal and AR(1) column correlation."""
    z = rng.standard_normal((n, p))
    x_raw = ar1_rows_cholesky(z, rho) if rho else z
    signal = x_raw @ beta if beta is not None else 0.0
    y_raw = signal + sigma * rng.standard_normal(n)
    return Dataset(y=y_raw - y_raw.mean(), X=x_raw - x_raw.mean(axis=0))
