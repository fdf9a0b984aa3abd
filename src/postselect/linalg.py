"""Least-squares machinery for sub-models of a centered linear regression.

A model is identified by the subset of design columns it uses.  Fits are
computed through a thin QR factorization of the selected columns; the error
sum of squares (SSE) and the residual-variance estimate follow the
``n - |S| - 1`` degrees-of-freedom convention of a regression whose intercept
has been absorbed by centering.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import PostselectError

# A subset's QR factor is rank deficient when its smallest diagonal pivot
# falls below this fraction of the largest one.
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


@dataclass(frozen=True)
class Dataset:
    """A centered response vector and column-centered design matrix.

    Parameters
    ----------
    y : ndarray, shape (n,)
        Response, centered to mean zero.
    X : ndarray, shape (n, p)
        Design matrix with every column centered to mean zero, p < n.

    raw : (y_raw, X_raw), optional
        The data the arrays were centered from.  Removing a mean leaves a
        residual mean of up to ``n * eps * max|raw value|`` in each column,
        so that is the tolerance of the centering check.  By default ``y``
        and ``X`` are their own raw data.

    Centered values must not exceed ``sqrt(max float64 / (4 n))`` in
    magnitude, so that no sum of squares of the data overflows.  Both arrays
    are copied, cast to float64, and frozen; a Dataset is safe to share
    across worker processes or threads.
    """

    y: np.ndarray
    X: np.ndarray
    raw: InitVar[Optional[tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self, raw) -> None:
        y = np.array(self.y, dtype=np.float64).reshape(-1)
        X = np.array(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        n, p = X.shape
        if y.shape[0] != n:
            raise ValueError(f"y has length {y.shape[0]} but X has {n} rows")
        if p < 1:
            raise ValueError("X must have at least one column")
        if p >= n:
            raise ValueError(f"need p < n, got p={p}, n={n}")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("y and X must be finite")
        # no sum of n squares of values within the bound, as in an SSE, overflows
        bound = np.sqrt(np.finfo(np.float64).max / (4 * n))
        if max(np.abs(y).max(), np.abs(X).max()) > bound:
            raise ValueError(f"centered y and X must not exceed {bound:.3e} in magnitude at n={n}")
        y_raw, X_raw = (y, X) if raw is None else raw
        if abs(y.mean()) > _centering_tolerance(y_raw):
            raise ValueError(f"y is not centered: mean(y)={y.mean():.3e}")
        col_means = np.abs(X.mean(axis=0))
        if np.any(col_means > _centering_tolerance(X_raw)):
            raise ValueError(
                f"X columns are not centered: max |mean|={col_means.max():.3e}"
            )
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def _centering_tolerance(raw: np.ndarray) -> np.ndarray:
    """Per column, the largest mean that centering ``raw`` can leave behind.

    The computed mean and each subtraction are exact to within
    ``n * eps * max|value|``, so a residual mean below that is rounding.
    """
    raw = np.asarray(raw, dtype=np.float64)
    return raw.shape[0] * np.finfo(np.float64).eps * np.abs(raw).max(axis=0)


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
    sigma_hat_sq : float
        Variance estimate ``sse / df``.
    r_factor : ndarray, shape (|S|, |S|)
        Upper-triangular factor of the thin QR ``X_S = Q R`` the fit was
        solved with; shape (0, 0) for the empty subset.
    """

    subset: Subset
    beta_hat: np.ndarray = field(repr=False)
    sse: float
    df: int
    sigma_hat_sq: float
    r_factor: np.ndarray = field(repr=False, compare=False)

    @property
    def sigma_hat(self) -> float:
        return float(np.sqrt(self.sigma_hat_sq))


def ols_fit(data: Dataset, s: Subset) -> SubsetFit:
    """Fit the sub-model using the columns in ``s`` by QR least squares.

    Raises
    ------
    ValueError
        If ``s`` leaves no residual degree of freedom (``n - |S| - 1 < 1``)
        or has an index beyond p.
    PostselectError
        If the selected columns are numerically collinear: the smallest
        diagonal entry of R is below ``RANK_RTOL`` times the largest.
    """
    df = data.n - s.size - 1
    if df < 1:
        raise ValueError(
            f"subset of size {s.size} leaves {df} degrees of freedom at n={data.n}"
        )
    if s.size and s.indices[-1] > data.p:
        raise ValueError(f"subset {s} has indices beyond the {data.p} available columns")
    Xs = data.X[:, s.positions]
    q, r = np.linalg.qr(Xs)
    d = np.abs(np.diagonal(r))
    if d.size and (d.max() == 0.0 or d.min() < RANK_RTOL * d.max()):
        raise PostselectError(f"columns of subset {s} are numerically collinear")
    beta = np.linalg.solve(r, q.T @ data.y)
    resid = data.y - Xs @ beta
    sse = float(resid @ resid)
    return SubsetFit(
        subset=s, beta_hat=beta, sse=sse, df=df, sigma_hat_sq=sse / df, r_factor=r
    )
