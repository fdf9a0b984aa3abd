"""Random sampling and Student-t special functions.

Every draw comes from a counter-based stream addressed by ``(seed, substream)``,
so parallel workers reproduce bit-identical results under any scheduling.
:func:`stream_keys` keys many streams in one array hash, :func:`stream_generators`
re-keys one generator to each, and :class:`RngStream` is one such stream.
:func:`ar1_rows` turns draws into AR(1) design rows in place; it trusts its correlation,
which :class:`~postselect.simulation.ExperimentConfig` has validated.

The Student-t CDF and quantile are built on a continued-fraction evaluation
of the regularized incomplete beta function; from df = 10^7 on, both expand
about the normal distribution instead, through the standard library's normal
quantile and ``math.erfc``.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import PostselectError

# Counter-based generator backing every stream; recorded in run metadata.
RNG_ALGORITHM = "philox4x64"
# numpy SeedSequence's hash chains (start, multiplier): the pool's and the state's
_POOL_CHAIN, _STATE_CHAIN, _MASK32 = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED), 2**32 - 1

_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 3000
_QUANTILE_TOL = 1e-13
# From this shape parameter on, lgamma differences are taken from Stirling's
# series instead.
_STIRLING_MIN = 100.0
# From this df on, where the continued fraction starts to lose digits, the
# quantile is the Cornish-Fisher expansion about the normal quantile, and the
# tail the normal tail at that expansion's inverse.
_CORNISH_FISHER_MIN_DF = 10**7
# From this t on, P(T > t) is below the smallest float at every df from
# _CORNISH_FISHER_MIN_DF on (about e^-800 at df = 10^7); far beyond it the
# expansion diverges.
_NORMAL_TAIL_MAX_T = 40.0


class RngStream:
    """Deterministic pseudo-random stream addressed by (seed, substream).

    Identical pairs yield identical output on any host and under any thread
    or process count: the generator :func:`stream_generators` yields for the
    pair.  Streams are stateful; derive one per worker instead of sharing one.
    """

    def __init__(self, seed: int, substream: int = 0) -> None:
        self._gen = next(stream_generators(seed, [substream]))
        self.seed, self.substream = int(seed), int(substream)

    def standard_normal(self, size=None, out: Optional[np.ndarray] = None) -> np.ndarray:
        """An array of iid standard normal draws, filled in C order, or ``out``
        (C-contiguous) filled with the draws of its size."""
        return self._gen.standard_normal(size, out=out)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, substream={self.substream})"


def _hashmix(value: np.ndarray, chain: tuple[int, int], k: int) -> np.ndarray:
    """SeedSequence's hash of a uint64 array of 32-bit words at step k of the
    hash chain ``chain``."""
    h = chain[0] * pow(chain[1], k, 1 << 32) & _MASK32
    value = (value ^ h) * (h * chain[1] & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed words ``y``, a uint64 array, into pool word ``x``."""
    r = ((0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _unsigned(values, bits: int, error: str) -> np.ndarray:
    """``values``, an int or ints, as a uint64 array; the first that is a bool,
    not an integer or outside [0, 2**bits) raises ``ValueError(error.format(it))``."""
    words = np.asarray(values, dtype=object)  # as given: numpy reads [4, True] as [4, 1]
    for v in words.flat:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not 0 <= v < 2**bits:
            raise ValueError(error.format(v))
    return words.astype(np.uint64)


def check_streams(seed: int, substreams: Sequence[int]) -> tuple[int, np.ndarray]:
    """The seed as an int and the substreams as uint64 words, refused as :func:`stream_keys`
    states; it imports no numpy.random, so a config check keeps it out of a pool's parent."""
    seed = int(_unsigned(seed, 64, "seed must be a 64-bit unsigned integer, got {}"))
    if isinstance(r := substreams, range) and r.step == 1 and 0 <= r.start <= r.stop <= 2**32:
        return seed, np.arange(r.start, r.stop, dtype=np.uint64)  # a run of ints: its ends suffice
    return seed, _unsigned(substreams, 32, "substream must lie in [0, 2**32), got {}")


def stream_keys(seed: int, substreams: Sequence[int]) -> np.ndarray:
    """The Philox keys, (b, 2) uint64, of the streams ``(seed, r)`` for r in
    ``substreams``: numpy's ``SeedSequence(entropy=seed, spawn_key=(r,))``
    key, ``generate_state(2, np.uint64)``.  The seed's words are numpy's
    ``SeedSequence(seed).pool``; the spawn words and states are mixed into it
    as uint64 arrays.  A seed must be an integer in [0, 2**64) and a substream
    one in [0, 2**32), where a spawn key has one word; none is truncated."""
    seed, r = check_streams(seed, substreams)
    pool = np.random.SeedSequence(seed).pool.tolist()
    pool = [_mix(w, _hashmix(r, _POOL_CHAIN, 16 + i)) for i, w in enumerate(pool)]
    w = [_hashmix(v, _STATE_CHAIN, j) for j, v in enumerate(pool)]
    return np.array([w[0] | w[1] << 32, w[2] | w[3] << 32], dtype=np.uint64).T.reshape(-1, 2)


def stream_generators(seed: int, substreams: Sequence[int]) -> Iterator[np.random.Generator]:
    """One Generator, re-keyed to each stream ``(seed, r)`` in turn and
    yielded: :func:`stream_keys`'s key, counter 0 and an empty buffer, as a
    fresh Philox seeded by that ``SeedSequence`` starts, without building a
    SeedSequence, a Philox and a Generator per stream."""
    bitgen = np.random.Philox(key=0)
    gen, state = np.random.Generator(bitgen), bitgen.state  # counter 0, buffer_pos 4
    for key in stream_keys(seed, substreams):
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def ar1_rows(z: np.ndarray, rho: float) -> np.ndarray:
    """Draws from N_p(0, Sigma) with ``Sigma_ij = rho ** |i - j|``, one per
    row of iid standard normals ``z`` along its last axis of length p.

    Overwrites ``z`` with the draws and returns it.  Sigma is positive
    definite for ``|rho| < 1``.  Each row uses the exact scalar recursion
    ``x_1 = z_1``, ``x_i = rho * x_{i-1} + sqrt(1 - rho^2) * z_i``, costing
    O(p) per row instead of a dense factor solve; every row is computed on
    its own, and ``z_i`` is read before ``x_i`` takes its place.
    """
    innov = math.sqrt(1.0 - rho * rho)
    for j in range(1, z.shape[-1]):
        z[..., j] = rho * z[..., j - 1] + innov * z[..., j]
    return z


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (Lentz's method);
    ``PostselectError`` if it has not converged after ``_CF_MAXIT`` terms."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
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
    raise PostselectError(
        f"incomplete beta continued fraction failed to converge for "
        f"a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(a: float, b: float, x: float, y: Optional[float] = None) -> float:
    """The regularized incomplete beta function I_x(a, b) for a, b > 0.

    ``y = 1 - x``, if the caller knows it to more digits than ``1 - x`` has.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    y = 1.0 - x if y is None else y
    lo, hi = min(a, b), max(a, b)
    if hi < _STIRLING_MIN:
        ln_gamma = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        ln_front = ln_gamma + a * math.log(x) + b * math.log1p(-x)
    else:
        # lgamma(hi + lo) - lgamma(hi) from Stirling's series, without the
        # cancellation of two values near hi log hi (DiDonato & Morris 1992);
        # x^a y^b keeps the digits of y
        w = 1.0 / (hi * (hi + lo))
        ln_front = (
            (hi - 0.5) * math.log1p(lo / hi) + lo * math.log(hi + lo) - lo - math.lgamma(lo)
            - lo * w * (1.0 / 12.0 - (3.0 * hi * (hi + lo) + lo * lo) * w * w / 360.0)
            + a * (math.log1p(-y) if y < 0.5 else math.log(x))
            + b * (math.log1p(-x) if x < 0.5 else math.log(y))
        )
    front = math.exp(ln_front)
    # evaluate the fraction on whichever side of the mean converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _check_df(df: int) -> int:
    """df as an int: a positive integer that a float can hold."""
    if isinstance(df, bool) or not 1 <= df < math.inf or int(df) != df:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if df > sys.float_info.max:
        raise ValueError(f"degrees of freedom too large for a float (above {sys.float_info.max:g})")
    return int(df)


def student_t_cdf(df: int, t: float) -> float:
    """P(T <= t) for T Student-t distributed with ``df`` degrees of freedom."""
    df = _check_df(df)
    t = float(t)
    if math.isnan(t):
        return math.nan
    tail = _upper_tail(df, t)
    return 1.0 - tail if t >= 0.0 else tail


def _upper_tail(df: int, t: float) -> float:
    """P(T > |t|), without the cancellation of ``1 - cdf``.

    From df = 10^7 on, where ``df / (df + t * t)`` rounds away t's digits, it
    is the normal tail ``erfc(x / sqrt 2) / 2`` at the x whose
    :func:`_cornish_fisher` quantile is |t|, found by the fixed point
    ``x <- |t| / factor(x)``: below ``_NORMAL_TAIL_MAX_T`` each step shrinks
    the error by at least 10^4, so four steps from x = |t| reach the last bit,
    and ``cdf(quantile(p))`` returns p to 1e-12 relative, a small tail too."""
    if df >= _CORNISH_FISHER_MIN_DF:
        t, v = abs(t), 1.0 / df
        if t >= _NORMAL_TAIL_MAX_T:
            return 0.0
        x = t
        for _ in range(4):
            x = t / _cornish_fisher(x, v)
        return 0.5 * math.erfc(x / math.sqrt(2.0))
    return 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, df / (df + t * t), t * t / (df + t * t))


def _cornish_fisher(x: float, v: float) -> float:
    """The factor t / x of A&S 26.7.5 to the 1/df^4 term, with ``v = 1 / df``,
    for the t-quantile of the normal quantile x (g_k here is A&S's g_k(x) / x)."""
    u = x * x
    g1, g2 = (u + 1.0) / 4.0, ((5.0 * u + 16.0) * u + 3.0) / 96.0
    g3 = (((3.0 * u + 19.0) * u + 17.0) * u - 15.0) / 384.0
    g4 = ((((79.0 * u + 776.0) * u + 1482.0) * u - 1920.0) * u - 945.0) / 92160.0
    return 1.0 + v * (g1 + v * (g2 + v * (g3 + v * g4)))


def _student_t_pdf(df: int, t: float) -> float:
    ln = (
        math.lgamma(0.5 * (df + 1))
        - math.lgamma(0.5 * df)
        - 0.5 * math.log(df * math.pi)
        - 0.5 * (df + 1) * math.log1p(t * t / df)
    )
    return math.exp(ln)


@lru_cache(maxsize=8192)
def _tail_quantile(df: int, tail: float) -> float:
    """The t > 0 with P(T > t) = tail for tail in (0, 0.5), by safeguarded Newton
    on ``cdf - (1 - tail)``, or below 1e-3, where ``1 - tail`` has rounded away
    the tail's digits, on ``tail - P(T > t)`` to 1e-11 relative to tail.
    The continued fraction's digits fade as df grows: the 0.975 quantile's
    relative error reaches 5.3e-11 near df = 10^7, and would be 1.8e-7 at 10^10.
    From df = 10^7 on it is :func:`_cornish_fisher` about the normal quantile
    x of the tail itself, whose truncation error is far below a float's
    rounding there, so a small tail keeps its digits."""
    if df >= _CORNISH_FISHER_MIN_DF:
        from statistics import NormalDist  # imported here: it costs a millisecond at start-up

        x = -NormalDist().inv_cdf(tail)
        return x * _cornish_fisher(x, 1.0 / df)
    if tail < 1e-3:
        excess, tol = (lambda t: tail - _upper_tail(df, t)), min(_QUANTILE_TOL, 1e-11 * tail)
    else:
        prob = 1.0 - tail
        excess, tol = (lambda t: student_t_cdf(df, t) - prob), _QUANTILE_TOL
    # bracket [lo, hi] with excess(lo) <= 0 <= excess(hi)
    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        lo = hi
        hi *= 2.0
    t = 0.5 * (lo + hi)
    for _ in range(200):
        f = excess(t)
        if f >= 0.0:
            hi = t
        else:
            lo = t
        if abs(f) <= tol:
            break
        pdf = _student_t_pdf(df, t)
        step = f / pdf if pdf > 0.0 else math.inf
        t_next = t - step
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)  # Newton left the bracket; bisect
        if t_next == t or hi - lo <= abs(t) * 1e-16:
            break
        t = t_next
    up = math.nextafter(t, math.inf)
    if math.isinf(up * up):
        # past here t * t is inf and P(T > t) reads 0, so the solver stops at
        # this boundary whatever the true quantile is
        raise ValueError(
            f"the t-quantile of tail {tail:g} at df = {df} lies at or beyond "
            f"{t:.10g}, where t^2 overflows"
        )
    return t


def student_t_quantile(df: int, prob: float) -> float:
    """The value q with P(T <= q) = prob for a Student-t variable.

    The positive quantile of the tail ``min(prob, 1 - prob)`` is solved for
    and mirrored for ``prob < 1/2``, so a lower-tail prob keeps its digits.
    """
    df = _check_df(df)
    prob = float(prob)
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must lie strictly inside (0, 1), got {prob}")
    if prob == 0.5:
        return 0.0
    q = _tail_quantile(df, min(prob, 1.0 - prob))
    return q if prob > 0.5 else -q
