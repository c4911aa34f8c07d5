"""Exception types shared across the package."""


class ProgramError(Exception):
    """Base class for program construction and validation failures."""


class DuplicateSymbol(ProgramError):
    pass


class UndeclaredSymbol(ProgramError):
    pass


class UnknownSymbol(ProgramError):
    pass


class ArityMismatch(ProgramError):
    pass


class DimClassConflict(ProgramError):
    pass


class NonPSDCovariance(ProgramError, ValueError):
    """A class's declared initial covariance has a NaN or a negative eigenvalue beyond roundoff."""


class StepAtJump(ProgramError):
    """A step of scalar parameters alone is on its jump at their limit values
    but not at their finite-size values, so the limit misses the finite sizes."""


class ShapeMismatch(Exception):
    """Word factors or probes do not compose."""


class CapExceeded(Exception):
    """A dense/eigen path was requested above the configured size cap."""


class MemoryPolicyError(Exception):
    """Forming a matrix would allocate more than ELEMENT_CAP entries."""


class NonPSDExtension(Exception):
    """A covariance extension's conditional variance is negative beyond roundoff."""


class NonFiniteEstimate(Exception):
    """A Monte-Carlo limit estimate or its standard error is not finite."""


class NonInvertibleSeries(Exception):
    """Series has no compositional inverse (or a moment sequence has m1 = 0)."""


class NotAlternating(Exception):
    """Adjacent factors of an alternating word come from the same collection."""


class ParseError(Exception):
    """DSL syntax error with source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class TruncationWarning(UserWarning):
    """A truncated expansion's last kept term is not negligible."""
