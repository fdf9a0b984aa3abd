"""Criterion-based subset selection and overfitting diagnostics.

A sub-model S is scored by ``gamma(S) = n * log(SSE(S)) + c_n * |S|`` with
natural logarithms throughout; AIC and BIC correspond to ``c_n = 2`` and
``c_n = log(n)``.  :func:`select` minimizes the score by exhaustive
enumeration.  :func:`theorem_report` computes the quantities that link
overfitting (choosing a strict superset of the true variables) to
under-estimation of the error variance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import AllSubsetsInfeasible, NonPositiveSse, TooManyPredictors, ZeroSse
from .linalg import RANK_RTOL, Dataset, Subset, ols_fit, qr_reduction

# 2^20 subsets is the most the exhaustive enumerator will attempt.
ENUMERATION_LIMIT = 20

# SSE values below this floor are clamped before taking logs, so a perfect
# fit scores a huge but finite negative value instead of -inf.
SSE_FLOOR = 1e-300

# Subsets are fitted in blocks of this many per batched factorization.
_BATCH_ROWS = 4096


@dataclass(frozen=True)
class Criterion:
    """A size penalty ``c_n`` for the selection score, resolved at a given n.

    ``kind`` is one of ``"aic"`` (``c_n = 2``), ``"bic"`` (``c_n = log n``) or
    ``"custom"`` (a fixed user-supplied value).
    """

    kind: str
    custom_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("aic", "bic", "custom"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "custom":
            if self.custom_value is None or self.custom_value < 0:
                raise ValueError("custom criterion needs a nonnegative c_n value")
        elif self.custom_value is not None:
            raise ValueError(f"{self.kind} does not take a custom value")

    @classmethod
    def aic(cls) -> "Criterion":
        return cls("aic")

    @classmethod
    def bic(cls) -> "Criterion":
        return cls("bic")

    @classmethod
    def custom(cls, c_n: float) -> "Criterion":
        return cls("custom", float(c_n))

    def c_n(self, n: int) -> float:
        """The penalty per selected variable at sample size n."""
        if self.kind == "aic":
            return 2.0
        if self.kind == "bic":
            return math.log(n)
        return float(self.custom_value)

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom(c_n={self.custom_value:g})"
        return self.kind


def gamma(sse: float, size: int, n: int, crit: Criterion) -> float:
    """Selection score ``n * log(sse) + c_n * size`` (natural log).

    Raises NonPositiveSse for ``sse <= 0``; values in ``(0, SSE_FLOOR)`` are
    clamped to the floor so exact fits stay comparable.
    """
    if sse <= 0.0:
        raise NonPositiveSse(f"gamma needs a positive SSE, got {sse}")
    if size < 0:
        raise ValueError(f"size must be nonnegative, got {size}")
    if n <= size + 1:
        raise ValueError(f"need n > size + 1, got n={n}, size={size}")
    return n * math.log(max(sse, SSE_FLOOR)) + crit.c_n(n) * size


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of exhaustive enumeration.

    Attributes
    ----------
    chosen : Subset
        The score minimizer, with ties broken by smaller size and then
        lexicographically smaller index list.
    gamma_values : dict[Subset, float]
        Score of every feasible enumerated subset.
    ties : tuple[Subset, ...]
        All subsets attaining the minimal score, in tie-break order.
    truncated_sse_count : int
        Number of subsets whose SSE fell below the log floor.
    skipped : tuple[tuple[Subset, str], ...]
        Subsets excluded from the enumeration, with reasons.
    """

    chosen: Subset
    gamma_values: dict[Subset, float]
    ties: tuple[Subset, ...]
    truncated_sse_count: int
    skipped: tuple[tuple[Subset, str], ...] = ()


@lru_cache(maxsize=512)
def _position_combos(p: int, k: int) -> np.ndarray:
    """All 0-based position combinations of size k, shape (C(p, k), k)."""
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(p), k)),
        dtype=np.intp,
        count=math.comb(p, k) * k,
    ).reshape(-1, k)
    combos.setflags(write=False)
    return combos


@lru_cache(maxsize=512)
def _subsets_of_size(p: int, k: int) -> tuple[Subset, ...]:
    return tuple(
        Subset(tuple(int(i) + 1 for i in row)) for row in _position_combos(p, k)
    )


def _batched_subset_sse(
    r_factor: np.ndarray, qty: np.ndarray, total_ss: float, combos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SSE and feasibility for a block of same-size subsets.

    Each subset's columns of the reduced factor are re-factorized; the SSE
    follows from the squared norm of the projected response.
    """
    a = np.moveaxis(r_factor[:, combos], 1, 0)  # (m, p, k)
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    dmax = diag.max(axis=1)
    feasible = (dmax > 0.0) & (diag.min(axis=1) >= RANK_RTOL * dmax)
    proj = np.einsum("mpk,p->mk", q, qty)
    sse = np.maximum(total_ss - np.einsum("mk,mk->m", proj, proj), 0.0)
    return sse, feasible


def select(
    data: Dataset,
    crit: Criterion,
    size_cap: Optional[int] = None,
    enumeration_limit: int = ENUMERATION_LIMIT,
) -> SelectionResult:
    """Choose the subset minimizing the selection score over all sub-models.

    Every subset of the p design columns (optionally capped at
    ``size_cap`` variables) is fitted and scored.  Subsets whose columns are
    numerically collinear, or that would leave no residual degree of freedom,
    are skipped and recorded.

    Raises
    ------
    TooManyPredictors
        If ``p`` exceeds ``enumeration_limit`` (default 20).
    AllSubsetsInfeasible
        If no enumerated subset can be fitted.
    """
    n, p = data.n, data.p
    if p > enumeration_limit:
        raise TooManyPredictors(
            f"p={p} exceeds the exhaustive enumeration limit of {enumeration_limit}"
        )
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be nonnegative, got {size_cap}")

    requested_max = p if size_cap is None else min(p, size_cap)
    max_size = min(requested_max, n - 2)  # keep df = n - |S| - 1 >= 1

    red = qr_reduction(data)
    cn = crit.c_n(n)

    gamma_values: dict[Subset, float] = {}
    skipped: list[tuple[Subset, str]] = []
    truncated = 0
    best_gamma = math.inf

    for k in range(max_size + 1, requested_max + 1):
        for s in _subsets_of_size(p, k):
            skipped.append((s, "insufficient degrees of freedom"))

    for k in range(0, max_size + 1):
        if k == 0:
            sse_k = np.array([red.total_ss])
            feas_k = np.array([True])
        else:
            combos = _position_combos(p, k)
            parts = [
                _batched_subset_sse(red.r_factor, red.qty, red.total_ss, chunk)
                for chunk in np.array_split(
                    combos, max(1, -(-combos.shape[0] // _BATCH_ROWS))
                )
            ]
            sse_k = np.concatenate([s for s, _ in parts])
            feas_k = np.concatenate([f for _, f in parts])
        truncated += int(np.count_nonzero(feas_k & (sse_k < SSE_FLOOR)))
        gammas = n * np.log(np.maximum(sse_k, SSE_FLOOR)) + cn * k
        subsets = _subsets_of_size(p, k) if k else (Subset(),)
        for s, ok, g in zip(subsets, feas_k, gammas):
            if ok:
                gamma_values[s] = float(g)
            else:
                skipped.append((s, "rank deficient"))
        feasible_gammas = gammas[feas_k]
        if feasible_gammas.size:
            best_gamma = min(best_gamma, float(feasible_gammas.min()))

    if not gamma_values:
        raise AllSubsetsInfeasible("no enumerable subset satisfies the preconditions")

    ties = sorted(
        (s for s, g in gamma_values.items() if g == best_gamma),
        key=lambda s: (s.size, s.indices),
    )
    return SelectionResult(
        chosen=ties[0],
        gamma_values=gamma_values,
        ties=tuple(ties),
        truncated_sse_count=truncated,
        skipped=tuple(skipped),
    )


class ConditionDiagnostics(NamedTuple):
    """Eq.-style overfit condition evaluated from sizes alone."""

    a_n: float
    d_n: float
    threshold: float  # 1 - exp(-a_n * d_n)
    holds: bool


def overfit_condition(
    n: int, size_star: int, size_hat: int, c_n: float
) -> ConditionDiagnostics:
    """Evaluate the variance under-estimation condition analytically.

    ``a_n = (c_n / n) * (n - size_star - 1)`` and
    ``d_n = (size_hat - size_star) / (n - size_star - 1)``; the condition
    holds when ``1 - exp(-a_n * d_n) > d_n``.  Requires a strict size
    increase and at least one residual degree of freedom for both models.
    The condition depends on the sizes alone, so it needs no fitted model.
    """
    if c_n < 0:
        raise ValueError(f"c_n must be nonnegative, got {c_n}")
    if size_hat <= size_star:
        raise ValueError(
            f"need size_hat > size_star, got {size_hat} <= {size_star}"
        )
    if size_star < 0 or n - size_hat - 1 < 1:
        raise ValueError(
            f"sizes leave no residual degrees of freedom: n={n}, "
            f"size_star={size_star}, size_hat={size_hat}"
        )
    return _condition(n, size_star, size_hat, c_n)


def _condition(
    n: int, size_star: int, size_hat: int, c_n: float
) -> ConditionDiagnostics:
    """The condition's arithmetic, without the size checks.

    ``a_n`` does not depend on ``size_hat``; equal sizes give ``d_n = 0`` and
    a condition that does not hold.
    """
    df_star = n - size_star - 1
    a_n = (c_n / n) * df_star
    d_n = (size_hat - size_star) / df_star
    threshold = -math.expm1(-a_n * d_n)
    return ConditionDiagnostics(a_n, d_n, threshold, threshold > d_n)


@dataclass(frozen=True)
class TheoremReport:
    """Overfitting diagnostics for a (true subset, selected subset) pair.

    ``d_n``, ``r_n`` and ``f_n`` are present only when the selected subset
    contains the true one; ``f_n`` additionally needs a strict size increase.
    ``condition_holds`` is False whenever the containment fails.

    ``r_n = 1 - sse_hat / sse_star`` is the relative SSE drop, so
    ``sse_hat = (1 - r_n) * sse_star``.  ``f_n`` is
    ``((sse_star - sse_hat) / (|s_hat| - |s_star|)) / (sse_hat / (n - |s_hat|))``
    (infinite when ``sse_hat`` is zero).  Its denominator degrees of freedom
    ``n - |s_hat|`` are one more than ``SubsetFit.df = n - |s_hat| - 1``,
    which also counts the intercept removed by centering.
    """

    s_star: Subset
    s_hat: Subset
    a_n: float
    d_n: Optional[float]
    r_n: Optional[float]
    f_n: Optional[float]
    condition_holds: bool
    sigma_hat_star: float
    sigma_hat_selected: float
    underestimates: bool
    strictly_overfits: bool
    sse_star: float
    sse_hat: float

    @property
    def contains_star(self) -> bool:
        return self.d_n is not None


def theorem_report(
    data: Dataset, s_star: Subset, s_hat: Subset, crit: Criterion
) -> TheoremReport:
    """Compare the variance estimates of a reference model and a selected one.

    Works for any fittable pair; the nested-model quantities are filled in
    when ``s_hat`` contains ``s_star``.

    Raises
    ------
    ZeroSse
        If ``SSE(s_star)`` is zero (the relative reduction is undefined).
    """
    fit_star = ols_fit(data, s_star)
    fit_hat = ols_fit(data, s_hat)
    if fit_star.sse == 0.0:
        raise ZeroSse(f"SSE({s_star}) is zero; theorem quantities undefined")

    n = data.n
    nested = s_star.issubset(s_hat)
    # a_n does not depend on |s_hat|; a pair that is not nested is evaluated
    # at zero extra variables, where the condition cannot hold
    size_hat = s_hat.size if nested else s_star.size
    diag = _condition(n, s_star.size, size_hat, crit.c_n(n))
    d_n = r_n = f_n = None
    if nested:
        d_n = diag.d_n
        r_n = 1.0 - fit_hat.sse / fit_star.sse
        extra = s_hat.size - s_star.size
        if extra > 0:
            if fit_hat.sse == 0.0:
                f_n = math.inf
            else:
                f_n = ((fit_star.sse - fit_hat.sse) / extra) / (
                    fit_hat.sse / (n - s_hat.size)
                )

    sigma_star = fit_star.sigma_hat
    sigma_sel = fit_hat.sigma_hat
    return TheoremReport(
        s_star=s_star,
        s_hat=s_hat,
        a_n=diag.a_n,
        d_n=d_n,
        r_n=r_n,
        f_n=f_n,
        condition_holds=diag.holds,
        sigma_hat_star=sigma_star,
        sigma_hat_selected=sigma_sel,
        underestimates=sigma_sel < sigma_star,
        strictly_overfits=s_star.is_strict_subset(s_hat),
        sse_star=fit_star.sse,
        sse_hat=fit_hat.sse,
    )
