"""Monte Carlo engine for post-selection coverage studies.

Each replication draws a fresh dataset, fits the oracle model (the true
subset), runs criterion-based selection, and builds the mean-response
confidence interval at an independently drawn query point under both models.
Replications run in blocks, and one call of
:func:`~postselect.selection.select_stack` selects for all the datasets of a
block.  Replications are indexed substreams of one master seed, and a
dataset's subset scores do not depend on the others in its block, so results
are bit-identical for any block size and worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple, Optional, Union

import numpy as np

from .distributions import RNG_ALGORITHM, RngStream, sample_ar1_rows
from .errors import DegenerateReplication, PostselectError
from .inference import QueryPoint, covers, mean_response_ci, true_mean_response
from .linalg import Dataset, Subset, centered_dataset, ols_fit
from .selection import ENUMERATION_LIMIT, Criterion, overfit_condition, select_stack

# Replications per block, which share one call of select_stack.
_BLOCK_REPS = 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one coverage experiment.

    Defaults reproduce the reference study: n=50 observations on p=10
    AR(1)-correlated predictors with one-step correlation 0.5, true
    coefficients (1, 2, 3, 0, ..., 0), unit noise variance, AIC selection,
    95% intervals, 1000 replications.

    ``beta_star`` must be nonzero exactly on ``s_star``; leave ``s_star``
    unset to derive it from the support of ``beta_star``.
    """

    n: int = 50
    p: int = 10
    sigma: float = 1.0
    beta_star: tuple[float, ...] = (1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    s_star: Optional[Subset] = None
    rho: float = 0.5
    reps: int = 1000
    alpha: float = 0.05
    criterion: Criterion = field(default_factory=Criterion.aic)
    seed: int = 0
    workers: Union[int, str] = "auto"

    def __post_init__(self) -> None:
        if self.p < 1 or self.n <= self.p:
            raise ValueError(f"need 1 <= p < n, got n={self.n}, p={self.p}")
        if self.p > ENUMERATION_LIMIT:
            raise ValueError(
                f"p={self.p} exceeds the exhaustive enumeration limit of {ENUMERATION_LIMIT}"
            )
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"need |rho| < 1, got rho={self.rho}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        # an alpha so small that 1 - alpha/2 rounds to 1 has no t quantile
        if not 0.0 < self.alpha < 1.0 or 1.0 - self.alpha / 2.0 == 1.0:
            raise ValueError(f"alpha must lie in (0, 1) with 1 - alpha/2 < 1, got {self.alpha}")
        beta = tuple(float(b) for b in self.beta_star)
        if len(beta) != self.p:
            raise ValueError(
                f"beta_star has length {len(beta)} but p={self.p}"
            )
        if not all(map(math.isfinite, beta)):
            raise ValueError(f"beta_star must be finite, got {beta}")
        object.__setattr__(self, "beta_star", beta)
        support = Subset(tuple(i + 1 for i, b in enumerate(beta) if b != 0.0))
        if support.size == 0:
            raise ValueError("beta_star must have at least one nonzero coefficient")
        if self.s_star is None:
            object.__setattr__(self, "s_star", support)
        elif self.s_star != support:
            raise ValueError(
                f"s_star {self.s_star} does not match the support {support} "
                f"of beta_star"
            )
        if self.s_star.size > self.n - 2:
            raise ValueError(
                f"s_star {self.s_star} leaves the oracle fit no residual degree "
                f"of freedom at n={self.n}; need |s_star| <= n - 2"
            )
        if self.workers != "auto" and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ValueError(f"workers must be 'auto' or a positive int, got {self.workers!r}")
        RngStream(self.seed)  # validates the seed range

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            return os.cpu_count() or 1
        return int(self.workers)


class GeneratedData(NamedTuple):
    data: Dataset
    raw_column_means: np.ndarray
    query_x_raw: np.ndarray


def generate_dataset(cfg: ExperimentConfig, rng: RngStream) -> GeneratedData:
    """Draw one dataset and query point from the configured model.

    Stream consumption order is fixed: n design rows, then n noise values,
    then the query row.  The design and response are returned centered, with
    the removed column means recorded for query-point handling.
    """
    x_raw = sample_ar1_rows(rng, cfg.n, cfg.p, cfg.rho)
    beta = np.asarray(cfg.beta_star)
    y_raw = x_raw @ beta + cfg.sigma * rng.standard_normal(cfg.n)
    data, _, col_means = centered_dataset(y_raw, x_raw)
    query_x_raw = sample_ar1_rows(rng, 1, cfg.p, cfg.rho)[0]
    return GeneratedData(data, col_means, query_x_raw)


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
    """Replications ``start..stop-1``: one call of ``select_stack`` selects
    for all their datasets, then each is fitted alone."""
    if cfg.sigma == 0.0:
        raise DegenerateReplication(
            f"replication {start}: sigma = 0 gives a noiseless model whose "
            "variance estimates are all zero; coverage summaries are undefined"
        )
    gens = [generate_dataset(cfg, RngStream(cfg.seed, i)) for i in range(start, stop)]
    # keep only what the fits need: holding the block's score array through
    # them raised the reference study's peak RSS by 0.4 MB
    selected = [
        (result.chosen, result.truncated_sse_count)
        for result in select_stack([gen.data for gen in gens], cfg.criterion)
    ]
    records = []
    for i, gen, (s_hat, floored) in zip(range(start, stop), gens, selected):
        data = gen.data
        try:
            oracle_fit = ols_fit(data, cfg.s_star)
            if floored:
                raise DegenerateReplication(
                    f"{floored} subsets hit the SSE floor; "
                    "variance comparisons would be meaningless"
                )
            selected_fit = ols_fit(data, s_hat)
            query = QueryPoint(x=gen.query_x_raw - gen.raw_column_means, centered=True)
            truth = true_mean_response(query, np.asarray(cfg.beta_star))
            ci_oracle = mean_response_ci(data, oracle_fit, query, cfg.alpha)
            ci_selected = mean_response_ci(data, selected_fit, query, cfg.alpha)
        except PostselectError as exc:
            raise type(exc)(f"replication {i}: {exc}") from exc
        strict = cfg.s_star.is_strict_subset(s_hat)
        condition = strict and overfit_condition(
            data.n, cfg.s_star.size, s_hat.size, cfg.criterion.c_n(data.n)
        ).holds
        records.append(
            ReplicationRecord(
                rep_index=i,
                s_hat=s_hat,
                sigma_hat_selected=selected_fit.sigma_hat,
                sigma_hat_oracle=oracle_fit.sigma_hat,
                ratio=oracle_fit.sigma_hat / selected_fit.sigma_hat,
                contains_star=cfg.s_star.issubset(s_hat),
                strict_overfit=strict,
                exact=s_hat == cfg.s_star,
                covered_selected=covers(ci_selected, truth),
                covered_oracle=covers(ci_oracle, truth),
                ci_width_selected=ci_selected.width,
                ci_width_oracle=ci_oracle.width,
                condition_holds=condition,
            )
        )
    return records


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
    standard_errors: dict[str, float]
    runtime_seconds: float
    rng_algorithm: str
    seed: int


def summarize(
    records: list[ReplicationRecord], runtime_seconds: float, seed: int
) -> ExperimentSummary:
    """Fold an ordered record list into an ExperimentSummary."""
    reps = len(records)
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


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[ExperimentSummary, list[ReplicationRecord]]:
    """Run all replications, in parallel when configured, and summarize.

    Records are returned ordered by replication index and are identical for
    any worker count at a fixed seed.
    """
    t0 = time.perf_counter()
    workers = min(cfg.resolved_workers(), cfg.reps)
    starts = range(0, cfg.reps, _BLOCK_REPS)
    stops = [min(start + _BLOCK_REPS, cfg.reps) for start in starts]
    args = (repeat(cfg), starts, stops)
    if workers <= 1:
        blocks = list(map(_replication_block, *args))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_replication_block, *args))
    records = [rec for blk in blocks for rec in blk]
    runtime = time.perf_counter() - t0
    return summarize(records, runtime, cfg.seed), records
