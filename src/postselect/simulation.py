"""Monte Carlo engine for post-selection coverage studies.

Each replication draws a fresh dataset, fits the oracle model (the true
subset), runs criterion-based selection, and builds the mean-response
confidence interval at an independently drawn query point under both models.
Replications run in blocks of as many as fit in ``_BLOCK_FLOATS`` floats of
data, and at least one, computed as stacks on one array ``[X | y]`` of their
data: one :func:`~postselect.selection.select_stack` selects for all, and per model
size one :func:`~postselect.linalg.ols_fit_stack` fits the selected and true subsets
of that size from the same array, and one :func:`~postselect.inference.interval_stack`
gives their intervals.  Replications are indexed substreams of one master seed, and
every stacked step computes each dataset on its own, so results are bit-identical
for any block size and worker count.  The stacked functions are internal, not in
``postselect.__all__``; the public API is the one-dataset and one-replication calls.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence, Union

import numpy as np

from .distributions import RNG_ALGORITHM, RngStream, ar1_rows, check_streams, stream_generators
from .errors import DegenerateReplication, PostselectError
from .inference import interval_stack
from .linalg import Dataset, Subset, check_data, collinear_error, ols_fit_stack
from .selection import ENUMERATION_LIMIT, Criterion, overfit_condition, select_stack, subset_of_mask

# A block holds as many replications as fit about this many floats of data, n (p + 1)
# each, and at least one; its traced memory peaks at about 3.5 times its data.  Larger
# blocks spread each stacked call's fixed cost over more replications; like the
# search's batch budget, it has no option.
_BLOCK_FLOATS = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one coverage experiment.

    Defaults reproduce the reference study: n=50 observations on p=10
    AR(1)-correlated predictors with one-step correlation 0.5, true
    coefficients (1, 2, 3, 0, ..., 0), unit noise variance, AIC selection,
    95% intervals, 1000 replications.  The true subset ``s_star`` is the
    support of ``beta_star``.
    """

    n: int = 50
    p: int = 10
    sigma: float = 1.0
    beta_star: tuple[float, ...] = (1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    rho: float = 0.5
    reps: int = 1000
    alpha: float = 0.05
    criterion: Criterion = field(default_factory=Criterion.aic)
    seed: int = 0
    workers: Union[int, str] = "auto"

    def __post_init__(self) -> None:
        counts = ("n", "p", "reps") + (() if self.workers == "auto" else ("workers",))
        for name in counts:  # numpy integers too, but not a bool or a float
            if isinstance(v := getattr(self, name), bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.p < 1 or self.n <= self.p:
            raise ValueError(f"need 1 <= p < n, got n={self.n}, p={self.p}")
        if self.p > ENUMERATION_LIMIT:
            raise ValueError(
                f"p={self.p} exceeds the exhaustive enumeration limit of {ENUMERATION_LIMIT}"
            )
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"need |rho| < 1, got rho={self.rho}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        # an alpha so small that 1 - alpha/2 rounds to 1 has no t quantile
        if not 0.0 < self.alpha < 1.0 or 1.0 - self.alpha / 2.0 == 1.0:
            raise ValueError(f"alpha must lie in (0, 1) with 1 - alpha/2 < 1, got {self.alpha}")
        beta = tuple(float(b) for b in self.beta_star)
        if len(beta) != self.p:
            raise ValueError(f"beta_star has length {len(beta)} but p={self.p}")
        if not all(map(math.isfinite, beta)):
            raise ValueError(f"beta_star must be finite, got {beta}")
        object.__setattr__(self, "beta_star", beta)
        if self.s_star.size == 0:
            raise ValueError("beta_star must have at least one nonzero coefficient")
        if self.s_star.size > self.n - 2:
            raise ValueError(
                f"s_star {self.s_star} leaves the oracle fit no residual degree "
                f"of freedom at n={self.n}; need |s_star| <= n - 2"
            )
        if self.workers != "auto" and self.workers < 1:
            raise ValueError(f"workers must be 'auto' or a positive int, got {self.workers!r}")
        check_streams(self.seed, [self.reps - 1])  # the seed and every substream in range

    @property
    def s_star(self) -> Subset:
        """The true subset: the indices of the nonzero coefficients."""
        return Subset(tuple(i + 1 for i, b in enumerate(self.beta_star) if b != 0.0))

    def resolved_workers(self) -> int:
        if self.workers == "auto":  # the CPUs this process may run on, where the OS tells
            affinity = getattr(os, "sched_getaffinity", None)
            return len(affinity(0)) if affinity else os.cpu_count() or 1
        return int(self.workers)


@dataclass(frozen=True, eq=False)  # arrays: compares and hashes by identity
class GeneratedData:
    data: Dataset
    raw_column_means: np.ndarray
    query_x_raw: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # the data rules reject data that overflow
def _generate(cfg: ExperimentConfig, substreams: Sequence[int], streams):
    """Each stream's centered design and response in one array ``[X | y]``, column
    means, query row and raw response and design, checked; a stream gives its n design
    rows, n noise values and query row in one call, whose draws the raw rows replace.
    One AR(1) recursion runs over all design rows and one over all query rows.  The
    data rules are checked at each replication's raw scale, never the centered one,
    which at n = 3 would reject valid data."""
    n, p = cfg.n, cfg.p
    # the block array below the draws, which are freed first: a smaller peak RSS
    data, z = np.empty((len(substreams), n, p + 1)), np.empty((len(substreams), n * p + n + p))
    for stream, row in zip(streams, z):
        stream.standard_normal(out=row)
    x_raw, query = ar1_rows(z[:, : n * p].reshape(-1, n, p), cfg.rho), ar1_rows(z[:, -p:], cfg.rho)
    y_raw = x_raw @ np.asarray(cfg.beta_star) + cfg.sigma * z[:, n * p : -p]
    col_means = x_raw.mean(axis=1)
    np.subtract(x_raw, col_means[:, None], out=data[:, :, :p])
    np.subtract(y_raw, y_raw.mean(axis=1)[:, None], out=data[:, :, p])  # a pairwise mean of y_raw
    check_data(data, y_raw, x_raw, lambda i: f"replication {substreams[i]}: ")
    return data, col_means, query, y_raw, x_raw


def generate_dataset(cfg: ExperimentConfig, rng: RngStream) -> GeneratedData:
    """One dataset and query point, as :func:`generate_stack` draws a row."""
    data, col_means, query, y_raw, x_raw = _generate(cfg, [rng.substream], [rng])
    centered = Dataset(data[0, :, -1], data[0, :, :-1], raw=(y_raw[0], x_raw[0]))
    return GeneratedData(centered, col_means[0], query[0].copy())


def generate_stack(cfg: ExperimentConfig, substreams: Sequence[int]) -> tuple[np.ndarray, ...]:
    """One dataset per stream ``(cfg.seed, r)``, r in ``substreams``, drawn through one
    re-keyed generator: the centered designs and responses as one array ``[X | y]``
    (b, n, p + 1), and the query points (b, p) shifted by the column means.  A dataset
    depends only on its stream, whose substream its data error names."""
    streams = stream_generators(cfg.seed, substreams)
    data, col_means, query, *_ = _generate(cfg, substreams, streams)
    return data, query - col_means


@dataclass(frozen=True)
class ReplicationRecord:
    """Per-replication outcomes feeding the scatter, histogram and rates.

    The field order is the column order of ``records.csv``, where ``s_hat``
    is written as its size.
    """

    rep_index: int
    sigma_hat_selected: float
    sigma_hat_oracle: float
    ratio: float
    s_hat: Subset
    contains_star: bool
    strict_overfit: bool
    exact: bool
    covered_selected: bool
    covered_oracle: bool
    ci_width_selected: float
    ci_width_oracle: float
    condition_holds: bool


def run_replication(cfg: ExperimentConfig, rep_index: int) -> ReplicationRecord:
    """Run one replication on the substream (cfg.seed, rep_index)."""
    return _replication_block(cfg, rep_index, rep_index + 1)[0]


def _replication_block(
    cfg: ExperimentConfig, start: int, stop: int
) -> list[ReplicationRecord]:
    """Replications ``start..stop-1``, as one pass over stacks.

    One :func:`generate_stack` and one :func:`select_stack` serve the block, and its
    fits gather their columns from the same array.  Each replication has two models,
    its chosen bitmask and S*, and all the block's models of one size share one
    ``ols_fit_stack`` and one ``interval_stack``.  A record's containment, exactness,
    strict overfit and condition are bitmask arithmetic, and one ``Subset`` is built
    per distinct chosen subset.  Every step treats each replication
    on its own, so a record does not depend on the block.  The block fails at its
    first failing replication, for that replication's first failure: the S* fit,
    then the SSE floor, then the selected fit.
    """
    data, query = generate_stack(cfg, range(start, stop))
    masks, _, bounds, floored, _ = select_stack(data, cfg.criterion)
    truth = (query[:, None, :] @ np.asarray(cfg.beta_star)[:, None])[:, 0, 0]
    star = sum(1 << (i - 1) for i in cfg.s_star.indices)
    chosen, b = masks[bounds[:-1]], len(data)
    contains, exact = chosen & star == star, chosen == star
    # the 2b models, as the (2, b) arrays below hold them flat: each
    # replication's selected subset in row 0, S* in row 1
    bits = np.concatenate([chosen, np.full_like(chosen, star)])[:, None] >> np.arange(cfg.p) & 1
    sizes, fitted = bits.sum(axis=1), np.concatenate([~exact, np.ones(b, bool)])
    (sigma, width), (collinear, covered) = np.empty((2, 2, b)), np.empty((2, 2, b), bool)
    # sizes as a set, not np.unique: its hash table keeps about 1 MB once used
    for k in sorted(set(sizes[fitted].tolist())):
        js = (model := np.flatnonzero((sizes == k) & fitted)) % b
        positions = np.nonzero(bits[model])[1].reshape(len(js), k)
        fit = ols_fit_stack(data, js, positions)
        sigma.flat[model] = sigma_hat = np.sqrt(fit.sse / fit.df)
        xs, t = query[js[:, None], positions], truth[js]
        *_, lo, hi = interval_stack(xs, fit.beta, fit.r, sigma_hat, fit.df, cfg.alpha)
        collinear.flat[model], width.flat[model] = fit.collinear, hi - lo
        covered.flat[model] = (lo <= t) & (t <= hi)
    for outcome in sigma, width, collinear, covered:  # an exact selection's fit is S*'s
        outcome[0, exact] = outcome[1, exact]
    failed = collinear[1] | (floored > 0) | collinear[0]
    if failed.any():
        j = int(failed.argmax())
        if floored[j] and not collinear[1, j]:
            raise DegenerateReplication(
                f"replication {start + j}: {floored[j]} subsets hit the SSE floor; "
                "variance comparisons would be meaningless"
            )
        s = subset_of_mask(star if collinear[1, j] else int(chosen[j]))
        raise PostselectError(f"replication {start + j}: {collinear_error(s)}")
    strict = contains & ~exact
    holds = np.zeros(cfg.p + 1, bool)  # the overfit condition, by the selected size
    for k in set(sizes[:b][strict].tolist()):
        holds[k] = overfit_condition(cfg.n, cfg.s_star.size, k, cfg.criterion.c_n(cfg.n)).holds
    s_hats = {m: subset_of_mask(m) for m in set(chosen.tolist())}
    rows = zip(range(start, stop), chosen.tolist(), *sigma.tolist(), contains.tolist(),
               strict.tolist(), exact.tolist(), *covered.tolist(), *width.tolist(),
               (strict & holds[sizes[:b]]).tolist())
    return [ReplicationRecord(i, sel, orc, orc / sel, s_hats[m], *rest)
            for i, m, sel, orc, *rest in rows]


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates over one experiment's replications.

    ``mean_ratio_overfit`` averages ``sigma_hat_oracle / sigma_hat_selected``
    over the strict-overfit replications only, and is None when none overfit.
    ``standard_errors`` holds the Monte Carlo standard error
    ``sqrt(r (1 - r) / reps)`` for each reported rate.
    """

    reps: int
    coverage_selected: float
    coverage_oracle: float
    mean_ratio_overfit: Optional[float]
    containment_rate: float
    exact_rate: float
    strict_overfit_rate: float
    condition_rate: float
    standard_errors: dict[str, float] = field(hash=False)
    runtime_seconds: float
    rng_algorithm: str
    seed: int


def summarize(
    records: list[ReplicationRecord], runtime_seconds: float, seed: int
) -> ExperimentSummary:
    """Fold an ordered, non-empty record list into an ExperimentSummary."""
    if not (reps := len(records)):
        raise ValueError("summarize needs at least one record")
    rates = {
        "coverage_selected": sum(r.covered_selected for r in records) / reps,
        "coverage_oracle": sum(r.covered_oracle for r in records) / reps,
        "containment_rate": sum(r.contains_star for r in records) / reps,
        "exact_rate": sum(r.exact for r in records) / reps,
        "strict_overfit_rate": sum(r.strict_overfit for r in records) / reps,
        "condition_rate": sum(r.condition_holds for r in records) / reps,
    }
    overfit_ratios = [r.ratio for r in records if r.strict_overfit]
    mean_ratio = (
        sum(overfit_ratios) / len(overfit_ratios) if overfit_ratios else None
    )
    ses = {
        name: math.sqrt(rate * (1.0 - rate) / reps) for name, rate in rates.items()
    }
    return ExperimentSummary(
        reps=reps,
        mean_ratio_overfit=mean_ratio,
        standard_errors=ses,
        runtime_seconds=runtime_seconds,
        rng_algorithm=RNG_ALGORITHM,
        seed=seed,
        **rates,
    )


def _place_worker(indices) -> None:
    """Pool worker i (i from ``indices``) moves to the i-th CPU it may use, mod their count, and
    may then use all again: a forked worker starts on its parent's CPU, and may stay there."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[indices.get() % len(cpus)]})
    os.sched_setaffinity(0, cpus)


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[ExperimentSummary, list[ReplicationRecord]]:
    """Run all replications, in parallel when configured, and summarize.

    Records are returned ordered by replication index and are identical for
    any worker count at a fixed seed.
    """
    t0 = time.perf_counter()
    size = max(1, _BLOCK_FLOATS // (cfg.n * (cfg.p + 1)))
    starts = range(0, cfg.reps, size)
    stops = [min(start + size, cfg.reps) for start in starts]
    workers = min(cfg.resolved_workers(), len(starts))  # a pool no wider than its blocks
    args = (repeat(cfg), starts, stops)
    if workers <= 1:
        blocks = list(map(_replication_block, *args))
    else:
        placement = {}
        if hasattr(os, "sched_setaffinity"):  # else a pool of workers that stay where they start
            from multiprocessing import SimpleQueue

            placement = {"initializer": _place_worker, "initargs": (indices := SimpleQueue(),)}
            for i in range(workers):
                indices.put(i)
        with ProcessPoolExecutor(max_workers=workers, **placement) as pool:
            blocks = list(pool.map(_replication_block, *args))
    records = [rec for blk in blocks for rec in blk]
    runtime = time.perf_counter() - t0
    return summarize(records, runtime, cfg.seed), records
