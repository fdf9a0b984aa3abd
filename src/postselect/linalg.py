"""Least-squares machinery for sub-models of a centered linear regression.

A model is identified by the subset of design columns it uses.  Fits are
computed through a thin QR factorization of the selected columns; the error
sum of squares (SSE) and the residual-variance estimate follow the
``n - |S| - 1`` degrees-of-freedom convention of a regression whose intercept
has been absorbed by centering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InsufficientDf, RankDeficient

# A subset's QR factor is rank deficient when its smallest diagonal pivot
# falls below this fraction of the largest one.
RANK_RTOL = 1e-10

# Absolute tolerance on the column means of a centered dataset.
CENTERING_ATOL = 1e-10


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

    Both arrays are copied, cast to float64, and frozen; a Dataset is safe to
    share across worker processes or threads.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self) -> None:
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
        if abs(y.mean()) > CENTERING_ATOL:
            raise ValueError(f"y is not centered: mean(y)={y.mean():.3e}")
        col_means = X.mean(axis=0)
        worst = np.abs(col_means).max()
        if worst > CENTERING_ATOL:
            raise ValueError(f"X columns are not centered: max |mean|={worst:.3e}")
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

    def columns(self, s: Subset) -> np.ndarray:
        """The n x |S| design slice for a subset (validates the indices)."""
        if s.size and s.indices[-1] > self.p:
            raise ValueError(
                f"subset {s} has indices beyond the {self.p} available columns"
            )
        return self.X[:, s.positions]


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
    data = Dataset(y=y_raw - y_mean, X=X_raw - column_means)
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


def _check_rank(r_diag: np.ndarray, s: Subset) -> None:
    d = np.abs(r_diag)
    if d.size and (d.max() == 0.0 or d.min() < RANK_RTOL * d.max()):
        raise RankDeficient(f"columns of subset {s} are numerically collinear")


def ols_fit(data: Dataset, s: Subset) -> SubsetFit:
    """Fit the sub-model using the columns in ``s`` by QR least squares.

    Parameters
    ----------
    data : Dataset
    s : Subset
        Must leave at least one residual degree of freedom
        (``n - |S| - 1 >= 1``) and select numerically independent columns.

    Returns
    -------
    SubsetFit

    Raises
    ------
    InsufficientDf
        If ``n - |S| - 1 < 1``.
    RankDeficient
        If the selected columns are numerically collinear.
    """
    df = data.n - s.size - 1
    if df < 1:
        raise InsufficientDf(
            f"subset of size {s.size} leaves {df} degrees of freedom at n={data.n}"
        )
    if s.size == 0:
        sse = float(data.y @ data.y)
        return SubsetFit(
            subset=s,
            beta_hat=np.empty(0),
            sse=sse,
            df=df,
            sigma_hat_sq=sse / df,
            r_factor=np.empty((0, 0)),
        )
    Xs = data.columns(s)
    q, r = np.linalg.qr(Xs)
    _check_rank(np.diagonal(r), s)
    beta = np.linalg.solve(r, q.T @ data.y)
    resid = data.y - Xs @ beta
    sse = float(resid @ resid)
    return SubsetFit(
        subset=s, beta_hat=beta, sse=sse, df=df, sigma_hat_sq=sse / df, r_factor=r
    )


class QrReduction(NamedTuple):
    """Per-dataset factorization reused across many subset fits.

    With ``X = Q0 R0`` (thin QR) and ``u = Q0' y``, every sub-model satisfies
    ``SSE(S) = ||y||^2 - ||proj of u onto span(R0[:, S])||^2``, so each subset
    costs a p x |S| factorization instead of an n x |S| one.
    """

    r_factor: np.ndarray
    qty: np.ndarray
    total_ss: float


def qr_reduction(data: Dataset) -> QrReduction:
    """Factor the full design once for repeated subset evaluation."""
    q0, r0 = np.linalg.qr(data.X)
    return QrReduction(
        r_factor=r0, qty=q0.T @ data.y, total_ss=float(data.y @ data.y)
    )
