"""Exception hierarchy shared across the library.

The CLI maps these onto process exit codes: configuration errors exit
with 2, data errors with 3, numerical errors with 4.
"""


class ProtofilterError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ProtofilterError):
    """A parameter or option lies outside its documented domain."""


class DataError(ProtofilterError):
    """Input data violates a structural precondition."""


class NumericalError(ProtofilterError):
    """A numerical routine failed or produced a corrupt value."""


class DimensionMismatchError(DataError):
    """Two vectors or arrays that must share a length do not.

    Carries both lengths as attributes so callers can inspect them.
    """

    def __init__(self, expected: int, actual: int, context: str = ""):
        self.expected = int(expected)
        self.actual = int(actual)
        message = f"dimension mismatch: expected length {self.expected}, got {self.actual}"
        if context:
            message = f"{context}: {message}"
        super().__init__(message)
