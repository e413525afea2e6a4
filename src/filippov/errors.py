"""Exception types shared across the toolkit."""

import functools


class FilippovError(Exception):
    """Base class for all toolkit errors."""


class ExpressionError(FilippovError):
    """Problem while parsing an expression source string.

    Carries the character position of the offending token when known.
    """

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class EvaluationError(FilippovError):
    """Expression evaluation produced a non-finite or undefined value."""


class ConfigurationError(FilippovError):
    """A system or scenario failed a load-time validation check."""


class OutsideDomainError(FilippovError):
    """A point lies outside a plane_rect domain."""


class UndefinedSlidingError(FilippovError):
    """Sliding vector field requested where its denominator vanishes."""


class NonIsolatedTangencyError(FilippovError):
    """A Lie derivative stays within the deadband over a whole sub-arc."""


class IntegrationError(FilippovError):
    """The stepper failed (step-size underflow, non-finite field, ...)."""


def evaluation_boundary(fn):
    """Turn the arithmetic errors of compiled fields (``ScalarField.raw()`` callables and the
    field text the arc loops inline) into EvaluationError."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvaluationError(f"{fn.__name__}: evaluation failed ({exc})") from exc

    return wrapper
