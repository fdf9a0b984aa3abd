"""Best-subset selection, overfitting diagnostics, and coverage studies.

The package selects the sub-model of a centered linear regression that
minimizes ``n log SSE(S) + c_n |S|`` over all subsets (AIC: ``c_n = 2``, BIC:
``c_n = log n``), quantifies how overfitting depresses the selected model's
variance estimate, and measures the resulting confidence-interval
undercoverage by simulation.
"""

import importlib
import os
import sys

# OpenBLAS's helper threads start with numpy and spin even when no BLAS call
# is made, and on the stacks of at most 21 columns fitted here they cost
# more than they give: `simulate` was no slower on one thread at any n
# measured (200 to 10^5).  Only `select` on one very tall dataset gains from
# them (README, "Reproducibility").  The thread count is read only while
# numpy loads, so when this package loads numpy and the user has chosen no
# count, it loads with one thread.  The variable is removed again: the
# environment is what the user had, and pool workers forked later keep the
# one thread.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .distributions import (
    RNG_ALGORITHM,
    RngStream,
    regularized_incomplete_beta,
    student_t_cdf,
    student_t_quantile,
)
from .inference import (
    ConfidenceInterval,
    QueryPoint,
    covers,
    mean_response_ci,
    true_mean_response,
)
from .linalg import (
    Dataset,
    Subset,
    centered_dataset,
    ols_fit,
)
from .selection import (
    Criterion,
    SelectionResult,
    TheoremReport,
    overfit_condition,
    select,
    theorem_report,
)
from .simulation import (
    ExperimentConfig,
    ExperimentSummary,
    ReplicationRecord,
    generate_dataset,
    run_experiment,
    run_replication,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "ConfidenceInterval",
    "Criterion",
    "Dataset",
    "ExperimentConfig",
    "ExperimentSummary",
    "QueryPoint",
    "ReplicationRecord",
    "RNG_ALGORITHM",
    "RngStream",
    "SelectionResult",
    "Subset",
    "TheoremReport",
    "centered_dataset",
    "covers",
    "generate_dataset",
    "mean_response_ci",
    "ols_fit",
    "overfit_condition",
    "regularized_incomplete_beta",
    "run_experiment",
    "run_replication",
    "select",
    "student_t_cdf",
    "student_t_quantile",
    "summarize",
    "theorem_report",
    "true_mean_response",
]
