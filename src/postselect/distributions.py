"""Random sampling and Student-t special functions.

Sampling goes through :class:`RngStream`, a seeded, substream-indexed wrapper
around a counter-based generator, so that parallel workers drawing from
``(seed, substream)`` pairs reproduce bit-identical results regardless of
scheduling.  :func:`sample_ar1_rows` draws AR(1)-correlated design rows from
such a stream; it trusts its dimension and correlation, which
:class:`~postselect.simulation.ExperimentConfig` has already validated.

The Student-t CDF and quantile are built on a continued-fraction evaluation
of the regularized incomplete beta function; no statistics library is
involved.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Counter-based generator backing every stream; recorded in run metadata.
RNG_ALGORITHM = "philox4x64"

_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 3000
_QUANTILE_TOL = 1e-13


class RngStream:
    """Deterministic pseudo-random stream addressed by (seed, substream).

    Identical ``(seed, substream)`` pairs yield identical output sequences on
    any host and under any thread or process count.  Streams are stateful and
    must not be shared between workers; derive one stream per worker instead.
    """

    def __init__(self, seed: int, substream: int = 0) -> None:
        seed = int(seed)
        substream = int(substream)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        if substream < 0:
            raise ValueError(f"substream must be nonnegative, got {substream}")
        self.seed = seed
        self.substream = substream
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(substream,))
        self._gen = np.random.Generator(np.random.Philox(ss))

    @property
    def algorithm(self) -> str:
        return RNG_ALGORITHM

    def standard_normal(self, size) -> np.ndarray:
        """An array of iid standard normal draws, filled in C order."""
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, substream={self.substream})"


def sample_ar1_rows(rng: RngStream, rows: int, p: int, rho: float) -> np.ndarray:
    """``rows`` iid draws from N_p(0, Sigma) with ``Sigma_ij = rho ** |i - j|``.

    Returns shape (rows, p).  Sigma is positive definite for ``|rho| < 1``.
    Each row uses the exact scalar recursion ``x_1 = z_1``,
    ``x_i = rho * x_{i-1} + sqrt(1 - rho^2) * z_i`` with iid standard normal
    ``z``, costing O(p) per row instead of a dense factor solve.  The stream
    is consumed one whole row of ``z`` at a time.
    """
    z = rng.standard_normal((rows, p))
    return _ar1_recursion(z, rho)


def _ar1_recursion(z: np.ndarray, rho: float) -> np.ndarray:
    x = np.empty_like(z)
    x[:, 0] = z[:, 0]
    innov = math.sqrt(1.0 - rho * rho)
    for j in range(1, z.shape[1]):
        x[:, j] = rho * x[:, j - 1] + innov * z[:, j]
    return x


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (Lentz's method)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        # even step
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        # odd step
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge for "
        f"a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # evaluate the fraction on whichever side of the mean converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _check_df(df: int) -> int:
    if isinstance(df, bool) or int(df) != df or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return int(df)


def student_t_cdf(df: int, t: float) -> float:
    """P(T <= t) for T Student-t distributed with ``df`` degrees of freedom."""
    df = _check_df(df)
    t = float(t)
    if math.isnan(t):
        return math.nan
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return 1.0 - tail if t >= 0.0 else tail


def _student_t_pdf(df: int, t: float) -> float:
    ln = (
        math.lgamma(0.5 * (df + 1))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1) * math.log1p(t * t / df)
    )
    return math.exp(ln)


@lru_cache(maxsize=8192)
def _upper_quantile(df: int, prob: float) -> float:
    """Quantile for prob in [0.5, 1), by safeguarded Newton on the CDF."""
    if prob == 0.5:
        return 0.0
    # bracket [lo, hi] with cdf(lo) <= prob <= cdf(hi)
    lo, hi = 0.0, 1.0
    while student_t_cdf(df, hi) < prob:
        lo = hi
        hi *= 2.0
    t = 0.5 * (lo + hi)
    for _ in range(200):
        f = student_t_cdf(df, t) - prob
        if f >= 0.0:
            hi = t
        else:
            lo = t
        if abs(f) <= _QUANTILE_TOL:
            break
        pdf = _student_t_pdf(df, t)
        step = f / pdf if pdf > 0.0 else math.inf
        t_next = t - step
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)  # Newton left the bracket; bisect
        if t_next == t or hi - lo <= abs(t) * 1e-16:
            break
        t = t_next
    return t


def student_t_quantile(df: int, prob: float) -> float:
    """The value q with P(T <= q) = prob for a Student-t variable.

    Antisymmetric about ``prob = 1/2`` by construction: the positive branch
    is solved once and mirrored for lower-tail probabilities.
    """
    df = _check_df(df)
    prob = float(prob)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie strictly inside (0, 1), got {prob}")
    if prob == 0.5:
        return 0.0
    upper = max(prob, 1.0 - prob)
    q = _upper_quantile(df, upper)
    return q if prob > 0.5 else -q
