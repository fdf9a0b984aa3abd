"""Least-squares machinery for sub-models of a centered linear regression.

A model is identified by the subset of design columns it uses.  Fits are
computed through a thin QR factorization of the selected columns; the error
sum of squares (SSE) and the residual-variance estimate follow the
``n - |S| - 1`` degrees-of-freedom convention of a regression whose intercept
has been absorbed by centering.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import PostselectError

# A subset's QR factor is rank deficient when one of its diagonal entries,
# the distance of a column from the span of the columns before it, is at
# most this fraction of that column's norm.  The test does not depend on the
# scale of the columns.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class Subset:
    """A sorted set of explanatory-variable indices, 1-based.

    The empty subset is valid and denotes the model with no regressors.
    """

    indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if any(i < 1 for i in idx):
            raise ValueError(f"subset indices must be >= 1, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"subset indices must be strictly increasing, got {idx}")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Subset":
        """Build a subset from any iterable of 1-based indices."""
        return cls(tuple(sorted({int(i) for i in indices})))

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def positions(self) -> np.ndarray:
        """0-based column positions for slicing a design matrix."""
        return np.asarray(self.indices, dtype=np.intp) - 1

    def issubset(self, other: "Subset") -> bool:
        return set(self.indices) <= set(other.indices)

    def is_strict_subset(self, other: "Subset") -> bool:
        return set(self.indices) < set(other.indices)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


@dataclass(frozen=True, eq=False)  # arrays: compares and hashes by identity
class Dataset:
    """A centered response vector and column-centered design matrix.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Response, centered to mean zero.
    X : ndarray, shape (n, p)
        Design matrix with every column centered to mean zero, p < n.

    raw : (y_raw, X_raw), optional
        The data the arrays were centered from; by default ``y`` and ``X``.

    The data must keep the rules of :func:`check_data`.  They are copied once, as
    float64, into ``xy`` = ``[X | y]`` (n, p + 1), which stacked calls read as ``xy[None]``
    and of which ``X`` and ``y`` are views; a pickle or copy holds ``xy`` alone.  All
    three are frozen; a Dataset is safe to share across worker processes or threads.
    """

    y: np.ndarray
    X: np.ndarray
    raw: InitVar[Optional[tuple[np.ndarray, np.ndarray]]] = None
    xy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, raw) -> None:
        y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        n, p = X.shape
        if y.shape[0] != n:
            raise ValueError(f"y has length {y.shape[0]} but X has {n} rows")
        if p < 1:
            raise ValueError("X must have at least one column")
        if p >= n:
            raise ValueError(f"need p < n, got p={p}, n={n}")
        y_raw, X_raw = (y, X) if raw is None else map(np.asarray, raw)
        xy = np.column_stack([X, y])
        check_data(xy[None], y_raw[None], X_raw[None])
        self.__setstate__({"xy": xy})

    def __getstate__(self) -> dict:
        return {"xy": self.xy}

    def __setstate__(self, state: dict) -> None:
        # also a copy by pickle or copy.deepcopy: frozen, with y and X views of xy
        xy = state["xy"]
        xy.setflags(write=False)
        for name, value in ("y", xy[:, -1]), ("X", xy[:, :-1]), ("xy", xy):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@np.errstate(over="ignore", invalid="ignore")  # a sum may overflow on rejected data
def check_data(data, y_raw, X_raw, label: Callable[[int], str] = lambda i: "") -> None:
    """``ValueError``, ``label(i)`` and then its first broken rule, for the first
    dataset i of a stack ``[X | y]``, ``data`` (b, n, p + 1), centered from ``y_raw``
    (b, n) and ``X_raw`` (b, n, p), that breaks a rule.  The rules, in order: finite
    values; none above ``sqrt(max float64 / (4 n))``, so that no sum of n
    squares, as in an SSE, overflows; y and X's columns centered, to the
    ``n * eps * max|raw value|`` that removing a mean leaves."""
    n = data.shape[1]
    # one abs max, without a |data| temporary, serves two rules: only NaN or inf makes it nonfinite
    top = np.maximum(data.max(axis=(1, 2)), -data.min(axis=(1, 2)))
    bound = math.sqrt(np.finfo(np.float64).max / (4 * n))
    tol = n * np.finfo(np.float64).eps
    means = data.sum(axis=1) / n  # each column's mean, y's last
    y_mean, col_means = means[:, -1], np.abs(means[:, :-1])
    failed = np.array([
        ~np.isfinite(top),
        top > bound,
        np.abs(y_mean) > tol * np.abs(y_raw).max(axis=1),
        # each column's abs max as a contiguous row: a reduction over axis 1 runs p-long loops
        (col_means > tol * np.abs(xt := X_raw.swapaxes(1, 2).copy(), out=xt).max(axis=2)).any(1),
    ])
    if failed.any():
        j = int(failed.any(axis=0).argmax())
        messages = (
            "y and X must be finite",
            f"centered y and X must not exceed {bound:.3e} in magnitude at n={n}",
            f"y is not centered: mean(y)={y_mean[j]:.3e}",
            f"X columns are not centered: max |mean|={col_means[j].max():.3e}",
        )
        raise ValueError(label(j) + messages[int(failed[:, j].argmax())])


@np.errstate(over="ignore", invalid="ignore")  # Dataset rejects data whose means are not finite
def centered_dataset(
    y_raw: np.ndarray, X_raw: np.ndarray
) -> tuple[Dataset, float, np.ndarray]:
    """Center a raw response and design, returning the removed means.

    Returns
    -------
    (dataset, y_mean, column_means)
        ``column_means`` has one entry per design column; new query points
        must be shifted by the same means before prediction.
    """
    y_raw = np.asarray(y_raw, dtype=np.float64).reshape(-1)
    X_raw = np.asarray(X_raw, dtype=np.float64)
    y_mean = float(y_raw.mean())
    column_means = X_raw.mean(axis=0)
    data = Dataset(y=y_raw - y_mean, X=X_raw - column_means, raw=(y_raw, X_raw))
    return data, y_mean, column_means


@dataclass(frozen=True)
class SubsetFit:
    """Least-squares output for one sub-model.

    Attributes
    ----------
    subset : Subset
        The fitted subset S.
    beta_hat : ndarray, shape (|S|,)
        Coefficient estimates for the selected columns.
    sse : float
        Error sum of squares, ``||y - X_S beta_hat||^2``.
    df : int
        Residual degrees of freedom, ``n - |S| - 1``.
    r_factor : ndarray, shape (|S|, |S|)
        Upper-triangular factor of the thin QR ``X_S = Q R`` the fit was
        solved with; shape (0, 0) for the empty subset.
    """

    subset: Subset
    beta_hat: np.ndarray = field(repr=False, compare=False)
    sse: float
    df: int
    r_factor: np.ndarray = field(repr=False, compare=False)

    @property
    def sigma_hat(self) -> float:
        return float(np.sqrt(self.sse / self.df))


def collinear_error(s: Subset) -> PostselectError:
    return PostselectError(f"columns of subset {s} are numerically collinear")


def ols_fit(data: Dataset, s: Subset) -> SubsetFit:
    """Fit the sub-model using the columns in ``s``: :func:`ols_fit_stack` on
    one dataset, with a collinear fit raised as a ``PostselectError``."""
    fit = ols_fit_stack(data.xy[None], np.zeros(1, np.intp), s.positions[None])
    if fit.collinear[0]:
        raise collinear_error(s)
    sse = float(fit.sse[0])
    return SubsetFit(s, fit.beta[0, :, 0], sse, fit.df, fit.r[0])


class FitStack(NamedTuple):
    """b fits of k columns each: ``beta`` (b, k, 1), ``r`` (b, k, k), ``sse``
    (b,), ``df`` and ``collinear`` (b,).  A collinear dataset is fitted with
    the identity in place of its R: finite, but meaningless."""

    beta: np.ndarray
    r: np.ndarray
    sse: np.ndarray
    df: int
    collinear: np.ndarray


def ols_fit_stack(data: np.ndarray, rows: np.ndarray, positions: np.ndarray) -> FitStack:
    """Fit columns ``positions[i]`` of the design of ``data[rows[i]]`` to its response,
    by QR least squares, for a stack of centered designs and responses ``[X | y]``,
    ``data`` (b, n, p + 1), and 0-based ``positions`` (m, k).  One stacked
    ``np.linalg.qr`` and one stacked ``np.linalg.solve`` treat each row on its own: a
    fit has the bits of the fit of a stack of one.  A row is collinear when a diagonal
    entry of its R is at most ``RANK_RTOL`` times the norm of its column; that is
    reported, not raised.  ``ValueError`` if ``n - k - 1 < 1`` or a position is not
    one of p columns.
    """
    n, p, k = data.shape[1], data.shape[2] - 1, positions.shape[1]
    if (df := n - k - 1) < 1:
        raise ValueError(f"subset of size {k} leaves {df} degrees of freedom at n={n}")
    if (bad := positions[(positions < 0) | (positions >= p)] + 1).size:
        raise ValueError(f"columns {sorted({*bad.tolist()})} lie beyond the {p} available columns")
    # each row's columns are gathered column-major, as data.X[:, S] is, and y is
    # gathered as a contiguous copy: the matvec X_S beta and q'y round by layout
    Xs, y = data.swapaxes(1, 2)[rows[:, None], positions].swapaxes(1, 2), data[rows, :, p, None]
    q, r = np.linalg.qr(Xs)
    collinear = (np.abs(r.diagonal(0, 1, 2)) <= RANK_RTOL * np.hypot.reduce(r, axis=1)).any(1)
    r[collinear] = np.eye(k)  # a collinear R may be singular
    beta = np.linalg.solve(r, q.transpose(0, 2, 1) @ y)
    resid = y - Xs @ beta
    # each SSE is a stack of (1, n) @ (n, 1) products on contiguous rows, as e @ e is
    return FitStack(beta, r, (resid.transpose(0, 2, 1) @ resid)[:, 0, 0], df, collinear)
