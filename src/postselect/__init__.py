"""Best-subset selection, overfitting diagnostics, and coverage studies.

The package fits every sub-model of a centered linear regression, selects one
by minimizing ``n log SSE(S) + c_n |S|`` (AIC: ``c_n = 2``, BIC:
``c_n = log n``), quantifies how overfitting depresses the selected model's
variance estimate, and measures the resulting confidence-interval
undercoverage by simulation.
"""

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
    select_stack,
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
    "select_stack",
    "student_t_cdf",
    "student_t_quantile",
    "summarize",
    "theorem_report",
    "true_mean_response",
]
