"""Exception hierarchy shared across the package, and the default word
budget whose excess raises BudgetExceededError."""

DEFAULT_BUDGET = 2 ** 22


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


class CylinderError(CuntzError):
    """A block map fails to build; `word` names the witness cylinder."""

    def __init__(self, message, word):
        super().__init__(message)
        self.word = tuple(word)


class DiagonalNotPreservedError(CylinderError):
    """The endomorphism does not map diagonal projections to diagonal 0/1 sums;
    the witness is a cylinder whose image is not one."""


class MasaNotInvariantError(CuntzError):
    """The endomorphism does not leave the requested masa invariant."""


class PartitionError(CylinderError):
    """A block map assignment violated the cylinder partition property; the
    witness is an input word claimed by two outputs or by none."""


class BudgetExceededError(CuntzError):
    """Exhaustive enumeration would exceed the configured word budget."""
