"""Exception types raised by the postselect package."""


class PostselectError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(PostselectError):
    """Selected design columns are numerically collinear."""


class InsufficientDf(PostselectError):
    """A fit would have fewer than one residual degree of freedom."""


class ZeroSse(PostselectError):
    """An SSE that must be positive is zero, leaving a ratio undefined."""


class NonPositiveSse(PostselectError):
    """A criterion evaluation received a non-positive SSE."""


class TooManyPredictors(PostselectError):
    """The design has more columns than exhaustive enumeration allows."""


class AllSubsetsInfeasible(PostselectError):
    """Every enumerated subset failed the fitting preconditions."""


class InvalidDf(PostselectError):
    """Degrees of freedom must be a positive integer."""


class InvalidProb(PostselectError):
    """A probability argument must lie strictly inside (0, 1)."""


class InvalidAlpha(PostselectError):
    """A significance level must lie strictly inside (0, 1)."""


class DegenerateModel(PostselectError):
    """The empty model admits no confidence interval for a mean response."""


class LengthMismatch(PostselectError):
    """Vector operands have incompatible lengths."""


class DegenerateReplication(PostselectError):
    """A Monte Carlo replication produced quantities the summaries cannot use."""
