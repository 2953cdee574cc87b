"""Exception hierarchy shared across the package."""


class HibTaskError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HibTaskError, ValueError):
    """Shapes of probability objects do not line up."""


class ValidationError(HibTaskError, ValueError):
    """An object violates its invariants (negative mass, bad column sums, ...)."""


class DegenerateColumnError(HibTaskError):
    """An encoder column lost all admissible mass during an update.

    Carries the level (1-based) and column index so callers can report
    exactly which conditional became undefined.
    """

    def __init__(self, level: int, column: int, message: str | None = None):
        self.level = level
        self.column = column
        super().__init__(
            message or f"encoder update degenerate at level {level}, column {column}"
        )


class ConfidenceUndefinedError(HibTaskError):
    """Confidence p(s|t) requested for an entity with zero marginal mass."""


class StructuralError(HibTaskError, ValueError):
    """A hierarchy or scene graph violates its structural invariants."""


class RefinementError(HibTaskError):
    """The scoring oracle failed; carries the offending query."""

    def __init__(self, query: str, message: str | None = None):
        self.query = query
        super().__init__(message or f"oracle failure on query: {query}")


class ParseError(HibTaskError, ValueError):
    """A structured-text input file could not be parsed into a valid object."""

    def __init__(self, path: str, field: str, message: str):
        self.path = path
        self.field = field
        super().__init__(f"{path}: {field}: {message}")
