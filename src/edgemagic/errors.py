"""Exception types shared across the package."""

__all__ = ["EdgeMagicError", "ParseError", "InvalidLabelingError", "BudgetExceededError"]


class EdgeMagicError(Exception):
    """Base class for errors raised by this package."""


class ParseError(EdgeMagicError):
    """A text input (graph, labeling, or assignment file) is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InvalidLabelingError(EdgeMagicError):
    """A labeling is structurally invalid, for example not a bijection.

    Distinct from a labeling that is valid but simply not magic; the
    latter is reported as a None result, never as an exception.
    """


class BudgetExceededError(EdgeMagicError):
    """An exhaustive computation was refused because the instance is too large.

    This is an explicit refusal, never a silently wrong or partial answer.
    """
