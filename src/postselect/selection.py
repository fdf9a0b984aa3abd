"""Criterion-based subset selection and overfitting diagnostics.

A sub-model S is scored by ``n * log(SSE(S)) + c_n * |S|`` with natural
logarithms throughout; AIC and BIC correspond to ``c_n = 2`` and
``c_n = log(n)``.  :func:`select_stack` minimizes the score by exhaustive
enumeration for a stack of datasets of one shape: one stacked QR
factorization of ``[X | y]``, then one sweep over the subset lattice
(:func:`_lattice_sse`).  :func:`select` is a stack of one, and the
simulation selects a block of replications at once.
:func:`theorem_report` computes the
quantities that link overfitting (choosing a strict superset of the true
variables) to under-estimation of the error variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import PostselectError
from .linalg import RANK_RTOL, Dataset, Subset, ols_fit

# 2^20 subsets is the most the exhaustive enumerator will attempt.
ENUMERATION_LIMIT = 20

# SSE values below this floor are clamped before taking logs, so a perfect
# fit scores a huge but finite negative value instead of -inf.
SSE_FLOOR = 1e-300

# The lattice sweep advances this many subsets per vectorized step, which
# bounds the memory its states take, whatever the number of subsets.
_SWEEP_CHUNK = 256


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
            raise ValueError(f"criterion: expected aic, bic or custom, got {self.kind!r}")
        if self.kind == "custom":
            if self.custom_value is None or not 0.0 <= self.custom_value < math.inf:
                raise ValueError(
                    f"custom criterion needs a finite nonnegative c_n, got {self.custom_value}"
                )
        elif self.custom_value is not None:
            raise ValueError(f"c_n only applies to the custom criterion, not {self.kind}")

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
        if n < 1:
            raise ValueError(f"need a positive sample size, got n={n}")
        if self.kind == "aic":
            return 2.0
        if self.kind == "bic":
            return math.log(n)
        return float(self.custom_value)

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom(c_n={self.custom_value:g})"
        return self.kind


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of exhaustive enumeration.

    Subset S is the bitmask with bit ``i - 1`` set for each index ``i`` in S.

    Attributes
    ----------
    truncated_sse_count : int
        Number of subsets whose SSE fell below the log floor.
    scores : ndarray, shape (2^p,)
        Score of every subset by bitmask; ``inf`` for a subset that is rank
        deficient or larger than ``max_size``.  Read-only.
    max_size : int
        Largest subset size scored: ``size_cap``, lowered to ``n - 2`` so
        that every fit keeps a residual degree of freedom.
    size_cap : int
        Largest subset size requested (p when uncapped).

    ``chosen``, ``gamma_values``, ``ties`` and ``skipped`` are derived from
    ``scores`` on first access.
    """

    truncated_sse_count: int
    scores: np.ndarray = field(repr=False, compare=False)
    max_size: int
    size_cap: int

    @cached_property
    def gamma_values(self) -> dict[Subset, float]:
        """Score of every feasible enumerated subset, by size then index list."""
        masks = _tiebreak_order(np.flatnonzero(np.isfinite(self.scores)), self._p)
        return {_subset(m): float(self.scores[m]) for m in masks.tolist()}

    @cached_property
    def chosen(self) -> Subset:
        """The score minimizer, with ties broken by smaller size and then
        lexicographically smaller index list.  The empty subset always has a
        finite score (``Dataset`` bounds the data), so one exists."""
        return self.ties[0]

    @cached_property
    def ties(self) -> tuple[Subset, ...]:
        """All subsets attaining the minimal score, in tie-break order."""
        best = np.flatnonzero(self.scores == self.scores.min())
        return tuple(_subset(m) for m in _tiebreak_order(best, self._p).tolist())

    @cached_property
    def skipped(self) -> tuple[tuple[Subset, str], ...]:
        """Subsets excluded from the enumeration, with reasons."""
        sizes = _subset_sizes(self._p)
        too_big = np.flatnonzero((sizes > self.max_size) & (sizes <= self.size_cap))
        deficient = np.flatnonzero(np.isinf(self.scores) & (sizes <= self.max_size))
        return tuple(
            (_subset(m), reason)
            for group, reason in (
                (too_big, "insufficient degrees of freedom"),
                (deficient, "rank deficient"),
            )
            for m in _tiebreak_order(group, self._p).tolist()
        )

    def ranked(self, top: int) -> list[tuple[Subset, float]]:
        """The ``top`` best-scoring subsets and their scores, ties broken as
        for ``chosen``; only these become ``Subset`` objects."""
        k = min(top, self.scores.size) - 1
        cutoff = np.partition(self.scores, k)[k]  # the top-th score
        masks = np.flatnonzero(np.isfinite(self.scores) & (self.scores <= cutoff))
        order = _tiebreak_order(masks, self._p, self.scores[masks])[:top]
        return [(_subset(m), float(self.scores[m])) for m in order.tolist()]

    @property
    def _p(self) -> int:
        return self.scores.size.bit_length() - 1


def _subset(mask: int) -> Subset:
    return Subset(tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1))


@cache
def _subset_sizes(p: int) -> np.ndarray:
    """Number of indices in each of the 2^p bitmasks; shared and read-only."""
    sizes = np.zeros(1 << p, dtype=np.uint8)
    for i in range(p):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    sizes.setflags(write=False)
    return sizes


def _tiebreak_order(masks: np.ndarray, p: int, *keys: np.ndarray) -> np.ndarray:
    """Sort masks by ``keys`` in order, then by size, then by index list.

    Among subsets of one size, a lexicographically smaller index list is a
    larger bitmask once the bits are reversed.
    """
    if masks.size < 2:
        return masks
    reversed_bits = np.zeros_like(masks)
    for i in range(p):
        reversed_bits |= ((masks >> i) & 1) << (p - 1 - i)
    sizes = _subset_sizes(p)[masks]
    return masks[np.lexsort((-reversed_bits, sizes, *reversed(keys)))]


def _lattice_sse(datasets: Sequence[Dataset], max_size: int) -> np.ndarray:
    """SSE of every subset of at most ``max_size`` columns: shape (B, 2^p),
    one row per dataset, indexed by bitmask.

    One stacked ``np.linalg.qr`` factors ``[X | y] = Q R`` for each dataset;
    its R factors equal those of separate calls.  The leading p x p block
    ``R0`` of R, the column ``u = Q0' y`` above ``R[p, p]`` and the full
    model's ``sse_full = R[p, p]^2`` reduce every subset S to p dimensions:
    with ``P_S`` the projection onto the columns of ``R0`` in S, ``SSE(S) =
    sse_full + ||u - P_S u||^2``, read from a residual, not as a difference
    of large sums of squares.

    The sweep walks the subset lattice as a tree: a subset's children add one
    index larger than its largest.  A subset's state is the residual of every
    larger column of ``[R0 | u]`` after projecting out its own columns, so a
    child orthogonalizes one column against its parent's state (modified
    Gram-Schmidt) and reads ``SSE = sse_full + ||residual of u||^2``.

    The B datasets share the sweep.  A state carries the flat index
    ``b * 2^p + mask`` of its SSE, and every step is arithmetic on each state
    alone, so a row does not depend on the other datasets.  States wait in
    one pool per largest index and advance ``_SWEEP_CHUNK`` at a time.  The
    deepest pool holding a full chunk goes first, else the shallowest
    non-empty one, so no pool grows past twice the chunk, and a step builds
    only the columns each child keeps: memory stays near ``_SWEEP_CHUNK *
    p^3`` floats whatever B and 2^p are.

    A subset is rank deficient when its smallest pivot (the norm of a column
    as it is orthogonalized) is below ``RANK_RTOL`` times its largest.  Its
    pivots lead those of every subset below it in the tree, which is
    therefore rank deficient too and is not visited.  Such subsets, and those
    larger than ``max_size``, keep SSE ``inf``.
    """
    b, p = len(datasets), datasets[0].p
    r = np.linalg.qr(np.stack([np.column_stack([d.X, d.y]) for d in datasets]), mode="r")
    # Python's float power (libm pow), not numpy's x * x: they differ in the
    # last bit for about one value in a thousand, and the pinned seed-42
    # records were computed with pow
    sse_full = np.array([float(d) ** 2 for d in r[:, p, p]])
    sse = np.full((b, 1 << p), np.inf)
    # one dot product per dataset on R's strided column: a contiguous copy or
    # an einsum would round differently from a one-dataset sweep
    sse[:, 0] = [full + float(u @ u) for full, u in zip(sse_full, r[:, :p, p])]
    bits = np.left_shift(1, np.arange(p), dtype=np.intp)
    # pools[k]: blocks of states whose largest column (0-based) is k - 1, each a
    # tuple (flat indices, sizes, state, smallest pivot, largest pivot).  A
    # state has shape (p, p - k + 1): the residuals of columns k..p-1 and of u.
    pools: list[list[tuple]] = [[] for _ in range(p)]
    counts = [0] * p
    if max_size > 0:
        root = r[:, :p].copy()  # [R0 | u]
        index = np.arange(b, dtype=np.intp) << p
        sizes = np.zeros(b, np.intp)
        pools[0].append((index, sizes, root, np.full(b, np.inf), np.zeros(b)))
        counts[0] = b
    while any(counts):
        full = [k for k in range(p) if counts[k] >= _SWEEP_CHUNK]
        k = full[-1] if full else next(k for k in range(p) if counts[k])
        blocks, pools[k], counts[k] = pools[k], [], 0
        if len(blocks) == 1:
            block = blocks[0]
        else:
            block = tuple(map(np.concatenate, zip(*blocks)))
        if block[0].size > _SWEEP_CHUNK:
            pools[k] = [tuple(x[_SWEEP_CHUNK:] for x in block)]
            counts[k] = block[0].size - _SWEEP_CHUNK
            block = tuple(x[:_SWEEP_CHUNK] for x in block)
        index, sizes, state, lo, hi = block

        # child c adds index k + c; its state drops columns 0..c of the parent's
        cols = state[:, :, :-1]
        pivots = np.sqrt(np.einsum("mpc,mpc->mc", cols, cols))
        q = cols / np.where(pivots > 0.0, pivots, 1.0)[:, None, :]
        coef = np.matmul(q.transpose(0, 2, 1), state[:, :, 1:])
        resid_u = state[:, :, -1:] - q * coef[:, None, :, -1]
        child_sse = sse_full[index >> p, None] + np.einsum(
            "mpc,mpc->mc", resid_u, resid_u
        )
        child_lo = np.minimum(lo[:, None], pivots)
        child_hi = np.maximum(hi[:, None], pivots)
        ok = (child_hi > 0.0) & (child_lo >= RANK_RTOL * child_hi)
        child_index = index[:, None] | bits[k:]
        sse.reshape(-1)[child_index[ok]] = child_sse[ok]

        child_sizes = sizes + 1
        ok &= (child_sizes < max_size)[:, None]  # only these have children
        all_ok = ok.all()
        for c in range(cols.shape[2] - 1):  # index p - 1 has no children
            block = (
                child_index[:, c],
                child_sizes,
                state[:, :, c + 1 :] - q[:, :, c, None] * coef[:, None, c, c:],
                child_lo[:, c],
                child_hi[:, c],
            )
            if not all_ok:
                block = tuple(x[ok[:, c]] for x in block)
            if block[0].size:
                pools[k + c + 1].append(block)
                counts[k + c + 1] += block[0].size
    return sse


def select_stack(
    datasets: Sequence[Dataset], crit: Criterion, size_cap: Optional[int] = None
) -> list[SelectionResult]:
    """Choose, for each dataset of one shape, the subset minimizing the
    selection score over all sub-models.

    One stacked QR factorization of ``[X | y]`` reduces every subset to p
    dimensions, and one sweep over the subset lattice scores each subset of
    at most ``size_cap`` variables from its parent's state
    (:func:`_lattice_sse`), reading its SSE from a residual, so a small SSE
    keeps its digits at a high signal-to-noise ratio.
    Subsets whose columns are numerically collinear, or that would leave no
    residual degree of freedom, are skipped and recorded.  An SSE within
    rounding error of zero (``(n eps)^2 ||y||^2``) counts as an exact fit.
    A dataset's result does not depend on the others in the stack.

    Raises
    ------
    ValueError
        If ``p`` exceeds ``ENUMERATION_LIMIT`` (20) or ``size_cap`` is
        negative.
    """
    n, p = datasets[0].n, datasets[0].p
    if p > ENUMERATION_LIMIT:
        raise ValueError(
            f"p={p} exceeds the exhaustive enumeration limit of {ENUMERATION_LIMIT}"
        )
    if size_cap is not None and size_cap < 0:
        raise ValueError(f"size_cap must be nonnegative, got {size_cap}")

    requested_max = p if size_cap is None else min(p, size_cap)
    max_size = min(requested_max, n - 2)  # keep df = n - |S| - 1 >= 1

    sse = _lattice_sse(datasets, max_size)
    sse[sse <= (n * np.finfo(np.float64).eps) ** 2 * sse[:, :1]] = 0.0
    truncated = np.count_nonzero(sse < SSE_FLOOR, axis=1)
    scores = np.maximum(sse, SSE_FLOOR, out=sse)
    np.log(scores, out=scores)
    scores *= n
    scores += (crit.c_n(n) * np.arange(p + 1))[_subset_sizes(p)]
    scores.setflags(write=False)
    return [
        SelectionResult(int(count), row, max_size, requested_max)
        for row, count in zip(scores, truncated)
    ]


def select(
    data: Dataset,
    crit: Criterion,
    size_cap: Optional[int] = None,
) -> SelectionResult:
    """Choose the subset minimizing the selection score over all sub-models:
    :func:`select_stack` on one dataset."""
    return select_stack([data], crit, size_cap)[0]


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
    if not 0.0 <= c_n < math.inf:
        raise ValueError(f"c_n must be finite and nonnegative, got {c_n}")
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
    sse_star: float
    sse_hat: float


def theorem_report(
    data: Dataset, s_star: Subset, s_hat: Subset, crit: Criterion
) -> TheoremReport:
    """Compare the variance estimates of a reference model and a selected one.

    Works for any fittable pair; the nested-model quantities are filled in
    when ``s_hat`` contains ``s_star``.

    Raises
    ------
    PostselectError
        If ``SSE(s_star)`` is zero (the relative reduction is undefined).
    """
    fit_star = ols_fit(data, s_star)
    fit_hat = ols_fit(data, s_hat)
    if fit_star.sse == 0.0:
        raise PostselectError(f"SSE({s_star}) is zero; theorem quantities undefined")

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
        sse_star=fit_star.sse,
        sse_hat=fit_hat.sse,
    )
