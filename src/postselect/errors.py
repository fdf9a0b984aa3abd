"""Exception types raised by the postselect package.

A bad argument raises the built-in ``ValueError`` (the CLI exits 2); a
failure of the method on valid inputs raises :class:`PostselectError` (the
CLI exits 3).  The empty model is not a failure: its interval is ``[0, 0]``.
"""


class PostselectError(Exception):
    """The method failed on the data: a collinear or degenerate model, or an
    undefined quantity."""


class DegenerateReplication(PostselectError):
    """A replication's subsets hit the SSE floor: its variances are meaningless."""
