"""Exception hierarchy shared across the package.

All numeric-failure exceptions derive from MomentZetaError so callers (and the
CLI) can distinguish "the computation is mathematically impossible or failed"
from plain programming errors, which raise ValueError/TypeError as usual.
"""


class MomentZetaError(Exception):
    """Base class for numeric/domain failures raised by this package."""


class Divergence(MomentZetaError):
    """A requested series or sum does not converge."""


class TailUnavailable(MomentZetaError):
    """An operation needs a power-law form of the tail and the sequence has none."""


class QuadratureFailure(MomentZetaError):
    """Numerical integration could not reach the requested tolerance."""


class InvalidTail(MomentZetaError):
    """The moments contradict their power-law form or the edge data given for it.

    Raised when spot checks find moments outside (0, 1] or not decreasing,
    and when a table's edge=(c, beta) differs from its last segment's.
    """


class PrecisionExhausted(MomentZetaError):
    """The extended-precision contract of the naive oracle cannot be met."""


class DomainError(MomentZetaError):
    """A parameter lies outside the admissible range of a formula."""


class TooManySets(MomentZetaError):
    """Subset enumeration was requested for more than 20 sets."""
