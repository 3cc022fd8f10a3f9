"""Exception types shared across the package."""


class RoncoError(ValueError):
    """Base class for all domain errors raised by this package."""


class DegreeOverflowError(RoncoError):
    """A bracket or evaluation would produce components above the degree cap."""


class NotLieElementError(RoncoError):
    """A tensor polynomial is not in the image of the free Lie algebra."""


class UnknownGeneratorError(RoncoError):
    """A term references a generator outside the configured alphabet."""


class TermSyntaxError(RoncoError):
    """Malformed bracket-term text.  `position` is the 1-based character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotInVarietyError(RoncoError):
    """An algebra fails the identity checks required by an operation.

    Carries the full verification report in `report`.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class InternalError(RuntimeError):
    """An internal invariant failed (for example ∂∘∂ ≠ 0): a bug, not bad input.

    Deliberately not a `RoncoError`, so the command line does not report it
    as an input error.
    """
