"""Exception and warning types shared across the package, and the one rule
that reads a numeric field."""

import math
from decimal import Decimal
from numbers import Number


class ValidationError(ValueError):
    """A parameter set violates one of its documented invariants."""


def _number(name: str, value, kind: str, cast):
    """cast(value) for a number that is not a bool, else a ValidationError:
    the field must be kind."""
    try:
        if isinstance(value, Number) and not isinstance(value, bool):
            return cast(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be {kind}, got {value!r}")


def integer_field(name: str, value, low: int, high=math.inf) -> int:
    """value as an int: an integral number in [low, high], not a bool, else a
    ValidationError that names the field."""
    number = _number(name, value, "an integer", int)
    if number != value or not low <= number <= high:
        shown = repr(value) if number.bit_length() <= 96 else f"{Decimal(number):.4e}"
        raise ValidationError(f"{name} must be an integer in [{low}, {high}], got {shown}")
    return number


def real_field(name: str, value, low=0.0, high=math.inf, closed=False) -> float:
    """value as a float: a number in (low, high), or [low, high) if closed, so
    never NaN or infinite, not a bool, else a ValidationError that names the
    field."""
    number = _number(name, value, "a finite real number", float)
    if not (low <= number if closed else low < number) or not number < high:
        lower = (("non-negative" if closed else "positive") if low == 0
                 else f"{'at least' if closed else 'above'} {low:g}")
        upper = "finite" if high == math.inf else f"below {high:g}"
        raise ValidationError(f"{name} must be {lower} and {upper}, got {value!r}")
    return number


class ConfigParseError(ValueError):
    """A config document could not be parsed; carries the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NumericalInstabilityWarning(UserWarning):
    """An alternating sum, or the complement 1 - x that gives a one-tag METS,
    OTS or RTS probability, lost more relative precision than
    analytic.CANCELLATION_THRESHOLD allows; the returned value is suspect."""
