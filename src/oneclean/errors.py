"""Exception types shared across the package."""


class OneCleanError(Exception):
    """Base class for all package errors."""


class DimensionError(OneCleanError, ValueError):
    """Operands have incompatible or non-power-of-two dimensions."""


class DomainError(OneCleanError, ValueError):
    """Parameter outside its allowed domain."""


class ShapeError(OneCleanError, ValueError):
    """Protocol does not have the shape a transform or backend requires."""


class ValidationError(OneCleanError, ValueError):
    """Protocol failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(OneCleanError, ValueError):
    """Malformed descriptor text; message names the offending field."""


class BackendLimitError(OneCleanError, RuntimeError):
    """Requested computation exceeds a backend's qubit or memory budget."""


class NumericalIntegrityError(OneCleanError, ArithmeticError):
    """A quantity that must be real/bounded drifted beyond tolerance."""
