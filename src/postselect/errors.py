"""Exception types raised by the postselect package.

A bad argument raises the built-in ``ValueError`` (the CLI exits 2); a
failure of the method on valid inputs raises :class:`PostselectError` (the
CLI exits 3).
"""


class PostselectError(Exception):
    """The method failed on the data: a collinear or degenerate model, or an
    undefined quantity."""


class DegenerateReplication(PostselectError):
    """A Monte Carlo replication produced quantities the summaries cannot use."""
