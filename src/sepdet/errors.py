"""Exception types shared across the package.

Every error raised on a bad input names the offending object (point id,
parameter, matrix entry) so CLI diagnostics can be emitted verbatim.
"""


class SepdetError(Exception):
    """Base class for all package errors."""


class UnknownPoint(SepdetError):
    """A point id does not belong to the space."""


class NonPositiveRadius(SepdetError):
    """A ball radius must be strictly positive."""


class BadShell(SepdetError):
    """A shell (r, s) must satisfy 0 < r < s."""


class EmptyRegion(SepdetError):
    """A region that must be nonempty came back empty."""


class DepthExceeded(SepdetError):
    """A closure run hit its depth bound before reaching a fixed point."""


class NoCoordinates(SepdetError):
    """An operation needed coordinates but the points carry none."""


class SpaceMismatch(SepdetError):
    """Objects built over different spaces were combined."""


class NotAChain(SepdetError):
    """A sequence of sets expected to be increasing is not."""


class IsolatedPoint(SepdetError):
    """Every punctured neighbourhood of the point is empty."""


class UnknownSuite(SepdetError):
    """run_suite was asked for a name that is not registered."""


class DescriptorError(SepdetError):
    """A JSON descriptor is malformed; the message names the field."""


class ScoreRangeError(SepdetError):
    """A score left the range allowed by the problem mode."""


class InvariantViolation(SepdetError):
    """An internal one-sided bound failed; indicates a bug, not bad input."""
