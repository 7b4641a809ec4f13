"""Exception types shared across the package."""

__all__ = [
    "TvgLearnError",
    "DataError",
    "CsvParseError",
    "CsvShapeError",
    "InfeasibleBudgetError",
    "SingularSystemError",
    "DivergenceError",
    "UsageError",
]


class TvgLearnError(Exception):
    """Base class for every error raised by this package."""


class DataError(TvgLearnError):
    """Input data could not be parsed or has an unusable shape."""


class CsvParseError(DataError):
    """A CSV cell failed to parse; the message carries 1-based coordinates."""


class CsvShapeError(DataError):
    """A parsed CSV does not describe a usable signal matrix."""


class InfeasibleBudgetError(TvgLearnError, ValueError):
    """The requested edge budget cannot be met by any feasible weight vector."""


class SingularSystemError(TvgLearnError):
    """The per-window linear system is not positive definite."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class DivergenceError(TvgLearnError):
    """The solver's iterates outgrew floating point: the objective became
    non-finite, or the final weights miss the edge budget."""


class UsageError(TvgLearnError):
    """Bad command line or configuration input."""
