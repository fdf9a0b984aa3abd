"""Classical normal-theory confidence intervals for the mean response.

Given a fitted sub-model S, the interval for the mean response at a query
point x is ``x_S' beta_S +/- t_{n-|S|-1}(1 - alpha/2) * sigma_S *
sqrt(x_S' (X_S' X_S)^-1 x_S)``.  The quadratic form is evaluated through the
triangular factor the fit already holds, never through an explicit inverse.
The empty model takes the same formula, which gives the interval ``[0, 0]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import student_t_quantile
from .linalg import Dataset, Subset, SubsetFit


@dataclass(frozen=True)
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
    """Confidence interval for the mean response at ``x`` under ``fit``.

    Parameters
    ----------
    data : Dataset
        The dataset the fit was computed from.
    fit : SubsetFit
        A least-squares fit of some subset of ``data``'s columns, as returned
        by ``ols_fit`` (which has already rejected collinear subsets).  The
        empty subset has no ``x_S``, so its interval is ``[0, 0]``.
    x : QueryPoint
        Full-dimension query point, centered by the training column means.
    alpha : float
        Significance level in (0, 1); the interval has nominal level
        ``1 - alpha``.

    Raises
    ------
    ValueError
        If alpha is outside (0, 1), or the query point does not have p
        components.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    if x.p != data.p:
        raise ValueError(f"query point has {x.p} components, expected {data.p}")
    if not x.centered:
        raise ValueError("query point must be centered by the training column means")
    if fit.df != data.n - fit.subset.size - 1:
        raise ValueError("fit does not match the dataset dimensions")

    xs = x.x[fit.subset.positions]
    center = float(xs @ fit.beta_hat)

    # x_S' (X_S' X_S)^-1 x_S = ||R^-T x_S||^2 with X_S = Q R
    w = np.linalg.solve(fit.r_factor.T, xs)
    quad_form = float(w @ w)

    t_crit = student_t_quantile(fit.df, 1.0 - alpha / 2.0)
    half_width = t_crit * fit.sigma_hat * math.sqrt(quad_form)
    return ConfidenceInterval(
        center=center,
        half_width=half_width,
        lo=center - half_width,
        hi=center + half_width,
        alpha=alpha,
        subset=fit.subset,
    )


def true_mean_response(x: QueryPoint, beta_star: np.ndarray) -> float:
    """The estimand ``x' beta_star``; zero coefficients drop out."""
    beta = np.asarray(beta_star, dtype=np.float64).reshape(-1)
    if beta.shape[0] != x.p:
        raise ValueError(f"query point has {x.p} components, beta_star has {beta.shape[0]}")
    return float(x.x @ beta)


def covers(ci: ConfidenceInterval, truth: float) -> bool:
    """Whether the closed interval [lo, hi] contains the truth."""
    return ci.lo <= truth <= ci.hi
