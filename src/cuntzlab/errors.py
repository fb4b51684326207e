"""Exception hierarchy shared across the package."""


class CuntzError(Exception):
    """Base class for all package-specific errors."""


class AlphabetMismatchError(CuntzError):
    """Two elements with different alphabet sizes were combined."""


class LevelError(CuntzError):
    """A leveling target was below the current right-length."""


class ParseError(CuntzError):
    """Syntax error in element or permutation text, with position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotUnitaryError(CuntzError):
    """The defining element of an endomorphism is not unitary."""


class NotHomogeneousError(CuntzError):
    """An operation requiring a gauge-homogeneous element got a mixed one."""


class DimensionCapError(CuntzError):
    """A matrix embedding exceeded the configured dimension cap."""


class DiagonalNotPreservedError(CuntzError):
    """The endomorphism does not map diagonal projections to diagonal 0/1 sums."""


class MasaNotInvariantError(CuntzError):
    """The endomorphism does not leave the requested masa invariant."""


class PartitionError(CuntzError):
    """A block map assignment violated the cylinder partition property."""


class BudgetExceededError(CuntzError):
    """Exhaustive enumeration would exceed the configured word budget."""
