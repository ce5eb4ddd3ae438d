"""Exception and warning types shared across the package."""


class ValidationError(ValueError):
    """A parameter set violates one of its documented invariants."""


class ConfigParseError(ValueError):
    """A config document could not be parsed; carries the offending line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NumericalInstabilityWarning(UserWarning):
    """An alternating sum lost more relative precision than
    analytic.CANCELLATION_THRESHOLD allows; the returned value is suspect."""
