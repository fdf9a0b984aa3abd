"""Independent oracle implementations used only by the tests.

These deliberately use different algorithms from the package: explicit
normal-equations solves instead of QR, a dense Cholesky factor instead of the
AR(1) recursion, closed-form distribution functions, a plain-loop
brute-force subset search, numpy's own ``SeedSequence`` instead of the
package's stream-key hash, and a replication computed one model at a time.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

from postselect import (
    Criterion,
    Dataset,
    ExperimentConfig,
    ReplicationRecord,
    Subset,
    TheoremReport,
    centered_dataset,
    student_t_quantile,
)
from postselect.distributions import ar1_rows

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


def brute_force_select(data: Dataset, crit: Criterion) -> tuple[Subset, dict[Subset, float]]:
    """Exhaustive search with normal-equations SSEs and the direct score formula."""
    n, p = data.n, data.p
    table: dict[Subset, float] = {}
    for k in range(0, min(p, n - 2) + 1):
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
    return centered_dataset(y_raw, x_raw)[0]


def reference_replication(cfg: ExperimentConfig, i: int) -> tuple[Dataset, np.ndarray, float]:
    """Replication i's centered data, its centered query point and the true
    mean response there.

    The normals come from numpy's own
    ``Philox(SeedSequence(entropy=seed, spawn_key=(i,)))``, not through the
    package's key hash.  Only the rest of the data come from the package
    (:func:`ar1_rows`, checked against a dense Cholesky factor, and
    :func:`centered_dataset`).
    """
    n, p = cfg.n, cfg.p
    seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,))
    z = np.random.Generator(np.random.Philox(seq)).standard_normal(n * p + n + p)
    x_raw = ar1_rows(z[: n * p].reshape(n, p), cfg.rho)
    y_raw = x_raw @ np.asarray(cfg.beta_star) + cfg.sigma * z[n * p : -p]
    data, _, col_means = centered_dataset(y_raw, x_raw)
    x0 = ar1_rows(z[-p:], cfg.rho) - col_means
    return data, x0, float(np.dot(x0, cfg.beta_star))


class ReferenceInterval(NamedTuple):
    """A subset's mean-response interval at x0 in parts: ``centre`` and
    ``sigma_hat`` from ``np.linalg.lstsq``, and ``quad = x0_S' (X_S'X_S)^-1 x0_S``
    from a normal-equations solve, so the half width is
    ``t(df) * sigma_hat * sqrt(quad)``."""

    centre: float
    sigma_hat: float
    quad: float
    df: int


def reference_interval(data: Dataset, x0: np.ndarray, s: Subset) -> ReferenceInterval:
    xs, xq, df = data.X[:, s.positions], x0[s.positions], data.n - s.size - 1
    beta = np.linalg.lstsq(xs, data.y, rcond=None)[0]
    resid = data.y - xs @ beta
    quad = float(xq @ np.linalg.solve(xs.T @ xs, xq)) if s.size else 0.0
    return ReferenceInterval(float(xq @ beta), math.sqrt(float(resid @ resid) / df), quad, df)


def covers(centre: float, half: float, truth: float) -> bool:
    return centre - half <= truth <= centre + half


def reference_records(cfg: ExperimentConfig, reps: int) -> list[ReplicationRecord]:
    """Replications 0..reps-1 recomputed one model at a time.

    The data are :func:`reference_replication`'s, and the t quantile is the
    package's, which has closed-form checks of its own.  Selection is
    :func:`brute_force_select`, each interval :func:`reference_interval`,
    and the condition is written out from the paper's
    ``1 - exp(-a_n d_n) > d_n``.
    """
    star, n = cfg.s_star, cfg.n
    records = []
    for i in range(reps):
        data, x0, truth = reference_replication(cfg, i)
        s_hat, _ = brute_force_select(data, cfg.criterion)
        sigma, width, covered = {}, {}, {}
        for s in (star, s_hat):
            part = reference_interval(data, x0, s)
            t = student_t_quantile(part.df, 1.0 - cfg.alpha / 2.0)
            half = t * part.sigma_hat * math.sqrt(part.quad)
            sigma[s], width[s] = part.sigma_hat, 2.0 * half
            covered[s] = covers(part.centre, half, truth)
        strict = star.is_strict_subset(s_hat)
        a_n = cfg.criterion.c_n(n) / n * (n - star.size - 1)
        d_n = (s_hat.size - star.size) / (n - star.size - 1)
        records.append(ReplicationRecord(
            rep_index=i,
            sigma_hat_selected=sigma[s_hat],
            sigma_hat_oracle=sigma[star],
            ratio=sigma[star] / sigma[s_hat],
            s_hat=s_hat,
            contains_star=star.issubset(s_hat),
            strict_overfit=strict,
            exact=s_hat == star,
            covered_selected=covered[s_hat],
            covered_oracle=covered[star],
            ci_width_selected=width[s_hat],
            ci_width_oracle=width[star],
            condition_holds=strict and 1.0 - math.exp(-a_n * d_n) > d_n,
        ))
    return records


def assert_records_match(records, reference) -> None:
    """Every size and boolean equal, every float within 1e-12 relative."""
    assert len(records) == len(reference)
    for got, want in zip(records, reference):
        for field in dataclasses.fields(ReplicationRecord):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.type == "float":
                assert a == pytest.approx(b, rel=1e-12, abs=0.0), (got.rep_index, field.name)
            else:
                assert a == b, (got.rep_index, field.name)
