"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A value does not fit its algebra, or two sides have mismatched sizes."""


class StructureError(ValueError):
    """An order-theoretic requirement fails (missing bound, foreign name)."""


class MembershipError(ValueError):
    """A concept was passed to a lattice it does not belong to."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


class BudgetError(RuntimeError):
    """An exhaustive scan would exceed the configured candidate budget."""


class UnclassifiedColumnError(StructureError):
    """The fast extension path was asked to handle an unrecognised column."""


class _LineError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LoadError(_LineError):
    """Malformed table-algebra description."""


class ParseError(_LineError):
    """Malformed context text."""
