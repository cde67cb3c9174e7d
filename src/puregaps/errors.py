"""Exception hierarchy.

Two branches matter to callers: ``ValidationError`` means the input data or
parameters were rejected (CLI exit code 2), ``ConsistencyError`` means an
internal cross-check between two independent computations failed (CLI exit
code 1).  Plain ``OverflowError`` is raised when a coordinate leaves the
64-bit signed range or a cardinality leaves the 128-bit range.
"""


class PureGapsError(Exception):
    """Base class for all package errors."""


class ValidationError(PureGapsError, ValueError):
    """Input data or parameters rejected."""


class DuplicateFirstCoordinateError(ValidationError):
    """A first coordinate occurs in two generating points."""


class DuplicateSecondCoordinateError(ValidationError):
    """A second coordinate occurs in two generating points."""


class ZeroOrNegativeCoordinateError(ValidationError):
    """Generating points must have strictly positive coordinates."""


class CoordinateDivisibleByPeriodError(ValidationError):
    """Multiples of the period are non-gaps and cannot appear in a
    generating set."""


class GapBeyondGenusBoundError(ValidationError):
    """A coordinate exceeds 2g - 1, the largest possible gap at a place of
    genus g; the box decomposition assumes every gap lies below it."""


class PeriodPropertyViolationError(ValidationError):
    """The period displacement law fails for some point and shift count."""

    def __init__(self, message, beta=None, k=None):
        super().__init__(message)
        self.beta = beta
        self.k = k


class ResidueChainStartError(ValidationError):
    """A residue class's chain of first coordinates starts at ``beta``,
    above the period: the first coordinates are not the gaps of a
    semigroup containing the period."""

    def __init__(self, message, beta=None):
        super().__init__(message)
        self.beta = beta


class InvalidParamsError(ValidationError):
    """Family or operation parameters outside their domain."""


class GammaFileError(ValidationError):
    """Generating set file rejected; message carries the line number."""


class ConsistencyError(PureGapsError):
    """Two routes to the same value disagreed; indicates a bug, not bad
    input."""


class GenusIdentityViolationError(ConsistencyError):
    """The weighted row sizes of the box decomposition do not sum to the
    genus."""


class CardinalityMismatchError(ConsistencyError):
    """A set's size disagrees with its proven cardinality formula."""


class DiagonalReflectionMismatchError(ConsistencyError):
    """The diagonal law fails: on a diagonal set G2 is not empty, or the
    general fourth component differs from the reflected third."""


class DisjointnessViolationError(ConsistencyError):
    """Sets that are provably disjoint overlapped."""


class PiecewiseMismatchError(ConsistencyError):
    """A piecewise cardinality branch disagrees with the explicit count."""


class GenericMismatchError(ConsistencyError):
    """A family's explicit closed-form set disagrees with the generic
    engine computation."""


class ClosedFormMismatchError(ConsistencyError):
    """A closed-form cardinality disagrees with enumeration."""


class DivisibilityViolationError(ConsistencyError):
    """A polynomial that must be divisible by its denominator is not."""
