"""Criterion-based subset selection and overfitting diagnostics.

A sub-model S is scored by ``n * log(SSE(S)) + c_n * |S|`` with natural
logarithms throughout; AIC and BIC correspond to ``c_n = 2`` and
``c_n = log(n)``.  :func:`select_stack` finds the best-scoring subsets for
a stack of datasets of one shape, each one array ``[X | y]``, by an exact branch
and bound over the column-dropping tree (Furnival & Wilson 1974; Hofmann, Gatu &
Kontoghiorghes 2007): one stacked QR factorization of the stack, then, level
by level, Givens passes that each build up to 2^16 floats of children.  :func:`select` is
a stack of one, and the simulation selects a block of replications at once.
:func:`theorem_report` computes the
quantities that link overfitting (choosing a strict superset of the true
variables) to under-estimation of the error variance.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import PostselectError
from .linalg import RANK_RTOL, Dataset, Subset, collinear_error

# 2^20 subsets is the most the exhaustive search will attempt.
ENUMERATION_LIMIT = 20

# The search builds at most this many floats of children's R factors at once (or
# one child), so its working memory does not grow with the number of subsets.
_BATCH_FLOATS = 1 << 16

# A subtree is pruned only when its bound exceeds the top-th best score by
# more than this relative slack, so rounding never prunes a tie.
_PRUNE_RTOL = 1e-12


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
        if self.kind == "custom":  # c_n * ENUMERATION_LIMIT must fit in half the float range
            top = sys.float_info.max / 2 / ENUMERATION_LIMIT
            if self.custom_value is None or not 0.0 <= self.custom_value <= top:
                raise ValueError(
                    f"custom criterion needs a c_n in [0, {top:.6g}], got {self.custom_value}"
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
    """Outcome of the search for one dataset.

    Subset S is the bitmask with bit ``i - 1`` set for each index ``i`` in S.
    ``chosen`` minimizes the score, ties broken by smaller size and then
    lexicographically smaller index list; the empty subset always has a
    finite score (``Dataset`` bounds the data), so one exists.
    ``truncated_sse_count`` counts the visited exact fits (see :func:`select_stack`).
    ``masks`` and ``scores`` (read-only) hold every visited subset and its
    score, ``inf`` if rank deficient or larger than ``max_size``, the
    degrees-of-freedom cap ``min(p, n - 2)`` that leaves every fit a residual
    degree of freedom, best first, ties broken as for ``chosen``.  The search
    visits every subset among the ``top`` best and every one that ties with
    the top-th, so ``ranked(k)`` is exact for ``k <= top``; it may prune the
    others unseen.  For ``top > 1``, "visited" means by its second pass.
    """

    chosen: Subset
    truncated_sse_count: int
    masks: np.ndarray = field(repr=False, compare=False)
    scores: np.ndarray = field(repr=False, compare=False)
    max_size: int
    top: int

    @cached_property
    def gamma_values(self) -> dict[Subset, float]:
        """Score of every visited subset with a finite score, by size then
        index list."""
        finite = np.isfinite(self.scores)
        items = zip(map(subset_of_mask, self.masks[finite].tolist()), self.scores[finite].tolist())
        return dict(sorted(items, key=lambda item: (item[0].size, item[0].indices)))

    @cached_property
    def ties(self) -> tuple[Subset, ...]:
        """All subsets attaining the minimal score, in tie-break order."""
        count = np.searchsorted(self.scores, self.scores[0], side="right")
        return tuple(subset_of_mask(m) for m in self.masks[:count].tolist())

    @cached_property
    def skipped(self) -> tuple[tuple[Subset, str], ...]:
        """Visited subsets without a score, with reasons: those larger than
        ``max_size``, then the rank-deficient ones, by size then index list."""
        items = self.skipped_masks().items()
        return tuple((subset_of_mask(m), why) for why, masks in items for m in masks)

    def skipped_masks(self) -> dict[str, list[int]]:
        """The bitmasks of ``skipped``, by reason, in its order."""
        # the unscored masks come last, by size: the rank-deficient ones first
        masks = self.masks[np.searchsorted(self.scores, np.inf) :].tolist()
        cut = bisect_right(masks, self.max_size, key=int.bit_count)
        return {"insufficient degrees of freedom": masks[cut:], "rank deficient": masks[:cut]}

    def ranked(self, k: int) -> list[tuple[Subset, float]]:
        """The ``k`` best-scoring subsets and their scores, ties broken as
        for ``chosen``; ``ValueError`` if ``k`` exceeds ``top``."""
        if k > self.top:
            raise ValueError(f"ranked({k}) needs a search for the top {k}, not {self.top}")
        count = min(k, np.searchsorted(self.scores, np.inf))
        subsets = map(subset_of_mask, self.masks[:count].tolist())
        return list(zip(subsets, self.scores[:count].tolist()))


def subset_of_mask(mask: int) -> Subset:
    """The subset whose bitmask, bit ``i - 1`` for each index ``i``, is ``mask``."""
    return Subset(tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1))


# row and column indices of the upper triangle of an s x s matrix
_upper = cache(np.triu_indices)


def _drop_column(h: np.ndarray, j: np.ndarray) -> np.ndarray:
    """R factors of ``[X_S | y]``, ``h`` (m, s + 1, s + 1), with column
    ``j[c]`` of ``h[c]`` deleted, for ascending ``j``; ``h`` is overwritten.

    The later columns shift left in place, and Givens rotations of rows
    ``i, i + 1`` for ``i >= j`` re-triangularize the Hessenberg remainder,
    ``O(s^2)`` work per child.  The children with ``j == i`` and with
    ``j <= i`` are slices.  The result, ``(m, s + 1, s)``, has a zero last
    row.  Its entry ``[s - 1, s - 1]`` is the hypot of the parent's ``[s, s]``
    and another term, so no child's SSE is below its parent's, in floating
    point too.
    """
    s = h.shape[1] - 1
    counts = [0, *np.searchsorted(j, np.arange(s), "right").tolist()]
    for i in range(int(j[0]), s):
        h[counts[i] : counts[i + 1], :, i:s] = h[counts[i] : counts[i + 1], :, i + 1 :]
        rows = h[: counts[i + 1], i : i + 2, i:s]
        a, b = rows[:, 0, :1], rows[:, 1, :1]
        rad, cos, sin = _givens(a, b)
        x, y = rows[:, 0, 1:], rows[:, 1, 1:]
        upper = cos * x + sin * y
        y *= cos
        y -= sin * x
        x[...], a[...], b[...] = upper, rad, 0.0
    return h[:, :, :s]


def _givens(a: np.ndarray, b: np.ndarray):
    """``hypot(a, b)``, and cos and sin of the rotation zeroing b (identity where both are 0)."""
    rad = np.hypot(a, b)
    if rad.all():  # the common case, 4-6 % of select_stack faster than the masked divide
        return rad, a / rad, b / rad
    cos = np.divide(a, rad, out=np.ones_like(rad), where=rad > 0.0)
    return rad, cos, np.divide(b, rad, out=np.zeros_like(rad), where=rad > 0.0)


def _drop_one(r: np.ndarray) -> np.ndarray:
    """:func:`_drop_column`'s ``[p - 1, p - 1]`` for every child j of every (p + 1)^2 factor
    in ``r``, (b, p): each child keeps only its row i, rotated against r's row i + 1."""
    row = r[:, :0, 1:]
    for i in range(r.shape[1] - 1):  # children j <= i, by j
        row = np.concatenate([row, r[:, i : i + 1, i + 1 :]], 1)
        rad, cos, sin = _givens(row[:, :, :1], r[:, i + 1 : i + 2, i + 1 : i + 2])
        row = r[:, i + 1 : i + 2, i + 2 :] * cos - sin * row[:, :, 1:]
    return rad[:, :, 0]


def _batches(chunks: list, s: int, c_n: float, limit: np.ndarray):
    """Yield each chunk's packed nodes and meta with the ``(j, parent)`` pairs of the
    children the parent bound keeps, in j-major slices of at most ``_BATCH_FLOATS``
    floats of (s + 1)^2 factors, releasing each chunk."""
    size = max(1, _BATCH_FLOATS // (s + 1) ** 2)
    while chunks:
        packed, meta, plog = chunks.pop()
        j = np.arange(s)[:, None]  # (S - {j}, j) and its subtree score >= plog + c_n j
        j, parent = np.nonzero((j >= meta[:, s + 1]) & (plog + c_n * j <= limit[meta[:, s]]))
        for first in range(0, j.size, size):
            yield packed, meta, j[first : first + size], parent[first : first + size]


def _kth_best(owner: np.ndarray, scores: np.ndarray, b: int, top: int):
    """The ``top``-th smallest score of each of b owners (``inf`` for one
    with fewer), and the finite scores at most their owner's."""
    if top == 1:  # the simulation's case, 5-13 % of select_stack faster than the sort
        cut = np.full(b, np.inf)
        np.minimum.at(cut, owner, scores)
        return cut, np.flatnonzero(scores <= np.minimum(cut[owner], np.finfo(np.float64).max))
    order = np.lexsort((scores, owner))
    owner, scores = owner[order], scores[order]
    kth = np.searchsorted(owner, np.arange(b)) + (top - 1)
    stop = np.searchsorted(owner, np.arange(b), "right")
    cut = np.where(kth < stop, scores[np.minimum(kth, scores.size - 1)], np.inf)
    return cut, order[scores <= np.minimum(cut[owner], np.finfo(np.float64).max)]


def _exact_fit_bound(n: int, y_norm: np.ndarray):
    """The largest residual norm that is rounding error, an exact fit: ``n eps ||y||``,
    but at least the smallest subnormal, so a zero y scores finitely."""
    f64 = np.finfo(np.float64)
    return np.maximum(n * f64.eps * y_norm, f64.smallest_subnormal)


def select_stack(
    data: np.ndarray, crit: Criterion, *, top: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Find, for each centered design and response ``[X | y]`` of ``data``
    (b, n, p + 1), the ``top`` (keyword-only) subsets with the smallest
    selection scores.  Returns ``(masks, scores, bounds, floored, max_size)``:
    dataset i's :class:`SelectionResult` fields are rows
    ``bounds[i]:bounds[i + 1]`` of ``masks`` and ``scores``, ``floored[i]``
    (its ``truncated_sse_count``) and ``max_size``, the degrees-of-freedom
    cap ``min(p, n - 2)``.

    An exact branch and bound over the column-dropping tree.  A node (S, k)
    holds the R factor of ``[X_S | y]``, whose last diagonal entry ``|r|`` is
    sqrt(SSE(S)), read from a residual, so it keeps its digits at a high
    signal-to-noise ratio: against ``lstsq`` SSE's relative error stays within
    ``8 eps sqrt(n) ||y|| / |r|``.  S scores ``2n log|r| + c_n |S|``.  Its
    children drop the column at one position ``j >= k`` of S and become (S minus
    it, j) (:func:`_drop_column`), so every subset is exactly one node.  Every
    subset below (S, k) has a larger SSE and at least k variables, so it
    scores at least ``n log SSE(S) + c_n k``; a subtree is pruned when that
    bound exceeds the top-th best score so far by more than a relative
    1e-12, so no tie is pruned, and no child (S minus j, j) is built that
    its parent's bound with k = j prunes.  The columns are preordered by
    full-model |t| (``t_j^2`` is proportional to the SSE gained by dropping
    column j), and one stacked QR of the permuted ``[X | y]`` scores the
    p + 1 nested prefixes, which seed the bound.  The search goes one
    subset size at a time, building the children of all datasets' live nodes
    in batches of at most ``_BATCH_FLOATS`` floats and pruning by the scores
    of the sizes before, so what a dataset visits does not depend on the rest of the stack.
    A child is unpacked from its parent's packed upper triangle, and a level's live
    nodes are kept packed, so working memory does not grow with 2^p.
    For ``top > 1`` a top-1 search from the same factor and seeds goes first, and the
    top-th best of the distinct subsets it visits caps the cut of the second, top-k
    search; the second one alone gives the visited subsets, their scores and ``floored``.

    A node is rank deficient when a diagonal entry of its R is at most
    ``RANK_RTOL`` times its column's norm; it scores ``inf`` but keeps its
    children.  So does a subset that would leave no residual degree of
    freedom.  A residual norm at most ``n eps ||y||`` is rounding error, an
    exact fit, scored as if it were that bound; no subset has one unless the
    full model, whose SSE is the smallest, does.  There is no other clamp, and
    ``|r|`` is never squared, so the ranking does not depend on the data's scale.
    ``ValueError`` if ``p`` exceeds ``ENUMERATION_LIMIT`` (20) or ``top`` is below 1.
    """
    b, n, p = data.shape[0], data.shape[1], data.shape[2] - 1
    if p > ENUMERATION_LIMIT:
        raise ValueError(f"p={p} exceeds the exhaustive enumeration limit of {ENUMERATION_LIMIT}")
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    top = min(top, 1 << p)  # no dataset has more subsets
    max_size = min(p, n - 2)  # keep df = n - |S| - 1 >= 1
    c_n = crit.c_n(n)

    r = np.linalg.qr(data, mode="r")
    perm = np.full((b, p + 1), p)
    perm[:, :p] = np.argsort(-_drop_one(r), axis=1, kind="stable")
    r = np.linalg.qr(np.take_along_axis(r, perm[:, None, :], 2), mode="r")
    bits = np.left_shift(1, perm[:, :p])  # each preorder position's bit in a bitmask
    collinear = RANK_RTOL * np.hypot.reduce(r[:, :, :p], axis=1)  # per column
    # the first m columns of the preorder leave the residual of rows m..p of y
    resid = np.hypot.accumulate(np.abs(r[:, ::-1, p]), axis=1)[:, ::-1]
    exact_fit = _exact_fit_bound(n, resid[:, 0])

    def score(exact_fit, norm, size, deficient):
        """Log term n log SSE, score and whether the norm is an exact fit, scored as the bound."""
        scored = ~deficient & (size <= max_size)
        log_term = 2 * n * np.log(np.maximum(norm, exact_fit))
        floored = scored & (norm <= exact_fit)
        return log_term, np.where(scored, log_term + c_n * size, np.inf), floored

    # the seeds; a visited subset is (dataset, bitmask, size, score, floored)
    sizes = np.arange(p + 1)
    deficient = np.zeros((b, p + 1), bool)
    deficient[:, 1:] = np.logical_or.accumulate(np.abs(r.diagonal(0, 1, 2)[:, :p]) <= collinear, 1)
    log_term, scores, floored = score(exact_fit[:, None], resid, sizes, deficient)
    prefix = np.concatenate([np.zeros((b, 1), bits.dtype), bits.cumsum(1)], 1)
    owner = np.repeat(np.arange(b), p + 1)
    seeds = (owner, prefix.ravel(), np.tile(sizes, b), scores.ravel(), floored.ravel())

    # a node is the upper triangle of its R factor, row by row, its columns'
    # preorder positions, dataset, k and bitmask, and its log term
    meta = np.zeros((b, p + 3), np.intp)
    meta[:, :p], meta[:, p], meta[:, p + 2] = np.arange(p), np.arange(b), prefix[:, p]
    # resid[:, p] is |r[:, p, p]|, so the full model's log term is a seed's
    root = (r[:, _upper(p + 1)[0], _upper(p + 1)[1]], meta, log_term[:, p])

    def search(top, cut0):
        """The seeds and the subsets a search for the top visits, its cut at most cut0."""
        records, frontier = [seeds], [root]
        cut, kept = _kth_best(seeds[0], seeds[3], b, top)
        cut, candidates = np.minimum(cut, cut0), (seeds[0][kept], seeds[3][kept])
        for s in range(p, 0, -1):
            size, limit = s - 1, cut + _PRUNE_RTOL * np.abs(cut)
            level, chunks, frontier = [], frontier, []
            for packed, meta, j, parent in _batches(chunks, s, c_n, limit):
                h = np.zeros((j.size, s + 1, s + 1))
                h[:, _upper(s + 1)[0], _upper(s + 1)[1]] = packed[parent]
                h = _drop_column(h, j)
                keep = np.arange(s + 2)
                child = meta[parent[:, None], keep + (keep >= j[:, None])]
                owner, dropped = child[:, size], meta[parent, j]
                child[:, s] = j
                child[:, s + 1] ^= bits[owner, dropped]
                d = np.abs(h.diagonal(0, 1, 2))
                deficient = (d[:, :size] <= collinear[owner[:, None], child[:, :size]]).any(1)
                log_term, scores, floored = score(exact_fit[owner], d[:, size], size, deficient)
                # a prefix, with last position size - 1, was a seed
                new = np.flatnonzero(child[:, size - 1] != size - 1) if size else j[:0]
                rec = (owner, child[:, s + 1], np.full(j.size, size), scores, floored)
                level.append(tuple(x[new] for x in rec))
                live = (j < size) & (log_term + c_n * j <= limit[owner])
                if live.any():  # packed in one indexing step, not copied whole first
                    live = np.flatnonzero(live)
                    packed = h[live[:, None], _upper(s)[0], _upper(s)[1]]
                    frontier.append((packed, child[live], log_term[live]))
                del h  # before the next batch builds its children
            if level:
                records += level
                owner = np.concatenate([candidates[0], *(rec[0] for rec in level)])
                scores = np.concatenate([candidates[1], *(rec[3] for rec in level)])
                cut, kept = _kth_best(owner, scores, b, top)
                cut, candidates = np.minimum(cut, cut0), (owner[kept], scores[kept])
            if not frontier:
                break
        return records

    # a top-1 pass is cheap, and the top-th best of the distinct subsets it visits, at
    # least the true top-th best, starts the top-k search's cut; for all 2^p it is inf
    cut0 = np.full(b, np.inf)
    if 1 < top < 1 << p:
        owner, _, _, scores, _ = map(np.concatenate, zip(*search(1, cut0)))
        cut0 = _kth_best(owner, scores, b, top)[0]
    owner, masks, sizes, scores, floored = map(np.concatenate, zip(*search(top, cut0)))
    # a smaller index list comes first: a larger p-bit reversal of the mask
    flipped = np.zeros_like(masks)
    for i in range(p):
        flipped |= (masks >> i & 1) << (p - 1 - i)
    ranking = np.lexsort((-flipped, sizes, scores, owner))
    owner, masks, scores = owner[ranking], masks[ranking], scores[ranking]
    masks.setflags(write=False)
    scores.setflags(write=False)
    bounds = np.searchsorted(owner, np.arange(b + 1))
    return masks, scores, bounds, np.bincount(owner[floored[ranking]], minlength=b), max_size


def select(data: Dataset, crit: Criterion, *, top: int = 1) -> SelectionResult:
    """:func:`select_stack` on ``data.xy``, over all 2^p subsets; ``top`` is keyword-only."""
    masks, scores, _, floored, cap = select_stack(data.xy[None], crit, top=top)
    return SelectionResult(subset_of_mask(int(masks[0])), int(floored[0]), masks, scores, cap, top)


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
    increase, at least one residual degree of freedom for both models and
    an ``n`` that a float can hold.  The condition depends on the sizes
    alone, so it needs no fitted model.
    """
    if not 0.0 <= c_n < math.inf:
        raise ValueError(f"c_n must be finite and nonnegative, got {c_n}")
    if n > sys.float_info.max:
        raise ValueError(f"n too large for a float (above {sys.float_info.max:g})")
    if size_hat <= size_star:
        raise ValueError(f"need size_hat > size_star, got {size_hat} <= {size_star}")
    if size_star < 0 or n - size_hat - 1 < 1:
        raise ValueError(
            f"sizes leave no residual degrees of freedom: n={n}, "
            f"size_star={size_star}, size_hat={size_hat}"
        )
    df_star = n - size_star - 1
    a_n = (c_n / n) * df_star
    d_n = (size_hat - size_star) / df_star
    threshold = -math.expm1(-a_n * d_n)
    return ConditionDiagnostics(a_n, d_n, threshold, threshold > d_n)


@dataclass(frozen=True)
class TheoremReport:
    """Overfitting diagnostics for a strict overfit: a selected subset
    ``s_hat`` that strictly contains the true one, ``s_star``.

    ``a_n``, ``d_n`` and ``condition_holds`` are :func:`overfit_condition`'s.
    ``r_n = 1 - sse_hat / sse_star`` is the relative SSE drop, so
    ``sse_hat = (1 - r_n) * sse_star``; only these two SSEs are squared from the
    factor's norms, and they underflow to 0 below about 1e-162 of data scale.  ``f_n`` is
    ``((sse_star - sse_hat) / (|s_hat| - |s_star|)) / (sse_hat / (n - |s_hat| - 1))``
    (infinite when ``sse_hat`` is an exact fit): its denominator is the selected
    fit's variance estimate, whose degrees of freedom also count the
    intercept removed by centering.
    """

    s_star: Subset
    s_hat: Subset
    a_n: float
    d_n: float
    r_n: float
    f_n: float
    condition_holds: bool
    sigma_hat_star: float
    sigma_hat_selected: float
    underestimates: bool
    sse_star: float
    sse_hat: float


def theorem_report(
    data: Dataset, s_star: Subset, s_hat: Subset, crit: Criterion
) -> TheoremReport:
    """Compare the variance estimates of the true model and a strict overfit.

    Raises
    ------
    ValueError
        Before any fit, unless ``s_hat`` strictly contains ``s_star``, lies
        within the data's p columns and leaves a residual degree of freedom.
    PostselectError
        If ``s_star``'s columns, then ``s_hat``'s, are collinear, or if
        ``SSE(s_star)`` is an exact fit (the relative reduction is undefined).
    """
    if not s_star.is_strict_subset(s_hat):
        raise ValueError(f"s_hat {s_hat} must strictly contain s_star {s_star}")
    n, k, m = data.n, s_star.size, s_hat.size
    diag = overfit_condition(n, k, m, crit.c_n(n))
    if s_hat.indices[-1] > data.p:
        raise ValueError(f"subset {s_hat} reaches beyond the {data.p} available columns")
    # one R factor of [X_S* | X_(S_hat minus S*) | y]: the norms of its last column's rows
    # m, k..m and k..m - 1 are S_hat's and S*'s residual norms and the drop's, not squared
    cols = [*s_star.indices, *(i for i in s_hat.indices if i not in s_star.indices)]
    r = np.linalg.qr(data.xy[:, [i - 1 for i in cols] + [data.p]], mode="r")
    collinear = np.abs(r.diagonal()[:m]) <= RANK_RTOL * np.hypot.reduce(r[:, :m], axis=0)
    for s in s_star, s_hat:
        if collinear[: s.size].any():
            raise collinear_error(s)
    last, hypot = np.abs(r[:, m]), np.hypot.reduce
    resid_hat, resid_star, drop = map(float, (last[m], hypot(last[k:]), hypot(last[k:m])))
    if resid_star <= (exact_fit := _exact_fit_bound(n, hypot(last))):
        raise PostselectError(f"SSE({s_star}) is zero up to rounding; theorem quantities undefined")
    sigma_star, sigma_hat = resid_star / math.sqrt(n - k - 1), resid_hat / math.sqrt(n - m - 1)
    return TheoremReport(
        s_star=s_star, s_hat=s_hat, a_n=diag.a_n, d_n=diag.d_n,
        r_n=(drop / resid_star) ** 2,
        f_n=(drop / sigma_hat) ** 2 / (m - k) if resid_hat > exact_fit else math.inf,
        condition_holds=diag.holds, sigma_hat_star=sigma_star, sigma_hat_selected=sigma_hat,
        underestimates=sigma_hat < sigma_star, sse_star=resid_star**2, sse_hat=resid_hat**2,
    )
