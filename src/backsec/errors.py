"""Exception and warning types shared across the package, and the one rule
that reads an integer field."""

import math
from decimal import Decimal


class ValidationError(ValueError):
    """A parameter set violates one of its documented invariants."""


def integer_field(name: str, value, low: int, high=math.inf) -> int:
    """value as an int: it must be an integral number in [low, high], not a
    bool, else a ValidationError that names the field."""
    try:
        number = int(value)
        integral = not isinstance(value, bool) and number == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not low <= number <= high:
        shown = repr(value) if number.bit_length() <= 96 else f"{Decimal(number):.4e}"
        raise ValidationError(f"{name} must be an integer in [{low}, {high}], got {shown}")
    return number


class ConfigParseError(ValueError):
    """A config document could not be parsed; carries the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NumericalInstabilityWarning(UserWarning):
    """An alternating sum lost more relative precision than
    analytic.CANCELLATION_THRESHOLD allows; the returned value is suspect."""
