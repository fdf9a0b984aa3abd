"""Classical normal-theory confidence intervals for the mean response.

Given a fitted sub-model S, the interval for the mean response at a query
point x is ``x_S' beta_S +/- t_{n-|S|-1}(1 - alpha/2) * sigma_S *
sqrt(x_S' (X_S' X_S)^-1 x_S)``.  The quadratic form is evaluated through the
triangular factor the fit already holds, never through an explicit inverse.
The empty model takes the same formula, which gives the interval ``[0, 0]``.
:func:`interval_stack` is the formula's one home, for a stack of fits of one
size; :func:`mean_response_ci` is its stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import student_t_quantile
from .linalg import Dataset, Subset, SubsetFit


@dataclass(frozen=True, eq=False)  # an array: compares and hashes by identity
class QueryPoint:
    """A new explanatory-variable setting, full dimension p.

    ``centered`` asserts that the training column means have already been
    subtracted; the fitted centered model only applies in that case.
    Sub-selection to the fitted columns happens inside the interval builder.
    """

    x: np.ndarray
    centered: bool

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64).reshape(-1)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)

    @property
    def p(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A symmetric two-sided interval for the mean response."""

    center: float
    half_width: float
    lo: float
    hi: float
    alpha: float
    subset: Subset

    @property
    def width(self) -> float:
        return self.hi - self.lo


def mean_response_ci(
    data: Dataset, fit: SubsetFit, x: QueryPoint, alpha: float
) -> ConfidenceInterval:
    """Confidence interval for the mean response at ``x`` under ``fit``, a
    least-squares fit of some subset of ``data``'s columns: one-fit
    :func:`interval_stack`.  The query point has all p components, centered
    by the training column means.  The interval has nominal level
    ``1 - alpha``; ``ValueError`` if alpha is outside (0, 1), the query point
    is not centered or does not have p components, or the fit does not match
    the dataset's dimensions.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if x.p != data.p:
        raise ValueError(f"query point has {x.p} components, expected {data.p}")
    if not x.centered:
        raise ValueError("query point must be centered by the training column means")
    if fit.df != data.n - fit.subset.size - 1:
        raise ValueError("fit does not match the dataset dimensions")

    xs, beta, r = x.x[None, fit.subset.positions], fit.beta_hat[None, :, None], fit.r_factor[None]
    center, half_width, lo, hi = (
        float(v[0]) for v in interval_stack(xs, beta, r, fit.sigma_hat, fit.df, alpha)
    )
    return ConfidenceInterval(center, half_width, lo, hi, alpha, fit.subset)


def interval_stack(xs: np.ndarray, beta: np.ndarray, r: np.ndarray, sigma_hat, df: int,
                   alpha: float) -> tuple[np.ndarray, ...]:
    """Center, half-width, lower and upper end of the interval of each of m
    fits of |S| columns: query rows ``xs`` (m, |S|), ``beta`` (m, |S|, 1),
    ``r`` (m, |S|, |S|), ``sigma_hat`` and ``df``.  Each dot product is a
    stack of ``(1, |S|) @ (|S|, 1)`` products on contiguous rows, which BLAS
    rounds as it rounds the one-fit product (not so at a stride).
    """
    xs = np.ascontiguousarray(xs)[:, None, :]
    center = (xs @ beta)[:, 0, 0]
    # x_S' (X_S' X_S)^-1 x_S = ||R^-T x_S||^2 with X_S = Q R
    w = np.linalg.solve(r.transpose(0, 2, 1), xs.transpose(0, 2, 1))
    half_width = student_t_quantile(df, 1.0 - alpha / 2.0) * sigma_hat * np.sqrt(
        (w.transpose(0, 2, 1) @ w)[:, 0, 0]
    )
    return center, half_width, center - half_width, center + half_width


def true_mean_response(x: QueryPoint, beta_star: np.ndarray) -> float:
    """The estimand ``x' beta_star``; zero coefficients drop out."""
    beta = np.asarray(beta_star, dtype=np.float64).reshape(-1)
    if beta.shape[0] != x.p:
        raise ValueError(f"query point has {x.p} components, beta_star has {beta.shape[0]}")
    return float(x.x @ beta)


def covers(ci: ConfidenceInterval, truth: float) -> bool:
    """Whether the closed interval [lo, hi] contains the truth."""
    return ci.lo <= truth <= ci.hi
