"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: DataError, ParameterError and
CutoffError -> 2, NumericalError -> 3.
"""


class TripleTwbError(Exception):
    """Base class for all package errors."""


class DataError(TripleTwbError):
    """Malformed, degenerate or inconsistent input data."""


class ParameterError(TripleTwbError):
    """Invalid model or detector parameters."""


class CutoffError(TripleTwbError):
    """A truncation box discards more probability mass than allowed."""


class NumericalError(TripleTwbError):
    """A numerical procedure lost too much precision or failed to converge."""
