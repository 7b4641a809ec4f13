"""Exception types and the argument checks shared across the package."""

import math
import numbers
import operator

import numpy as np

__all__ = [
    "TvgLearnError",
    "DataError",
    "InfeasibleBudgetError",
    "SingularSystemError",
    "DivergenceError",
]


class TvgLearnError(Exception):
    """Base class for every error raised by this package."""


class DataError(TvgLearnError):
    """An input file could not be read, parsed or used; the message names
    the file and, for a bad cell, its 1-based line and column."""


class InfeasibleBudgetError(TvgLearnError, ValueError):
    """The requested edge budget cannot be met by any feasible weight vector."""


class SingularSystemError(TvgLearnError):
    """The per-window linear system is not positive definite."""

    def __init__(self, message, window=None):
        super().__init__(message)
        self.window = window


class DivergenceError(TvgLearnError):
    """The solver's iterates outgrew floating point: the objective or the W
    step became non-finite, or the final weights miss the edge budget."""


def check_integer(name, value, minimum=None, maximum=None) -> int:
    """``value`` as a Python int; ValueError naming ``name`` unless it is an
    integer (a bool is not one) of at least ``minimum``, when one is given,
    and in [minimum, maximum] when ``maximum`` is given too."""
    # an exact int skips the ABC check, which costs about half a microsecond
    # on every X-update's edge count
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)  # a numpy integer's arithmetic wraps
    if maximum is not None:
        if not minimum <= value <= maximum:
            raise ValueError(f"{name} must be in [{minimum}, {maximum}], got {value}")
    elif minimum is not None and value < minimum:
        bound = {0: "non-negative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def _finite_real(name, value) -> bool:
    """Whether ``value`` is finite; ValueError naming ``name`` unless it is a
    real number that a float holds (a bool, complex or text is not one)."""
    try:  # a float (numpy's too) or an exact int skips the ABC check, about 1 us
        if isinstance(value, float) or type(value) is int or (
                isinstance(value, numbers.Real) and not isinstance(value, bool)):
            return math.isfinite(value)
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def check_finite(name, value, *, bound="non-negative"):
    """Raise ValueError naming ``name`` unless ``value`` is a finite real
    number within ``bound``: "non-negative", "positive" or None (any sign)."""
    if not (_finite_real(name, value) and (
            bound is None or value > 0 or (value == 0 and bound == "non-negative"))):
        sign = f"{bound} and " if bound else ""
        raise ValueError(f"{name} must be {sign}finite, got {value}")


def check_budget(name, k, m=None):
    """Raise InfeasibleBudgetError naming ``name`` unless the edge budget ``k``
    is in (0, m], or positive and finite when ``m`` is None (unknown)."""
    if not (_finite_real(name, k) and 0 < k <= (math.inf if m is None else m)):
        edges = "" if m is None else f" with m = {m} edges"
        raise InfeasibleBudgetError(f"{name} must be in (0, m]{edges}, got {k}")


def as_float_array(name, values, shape=None, finite=False):
    """``values`` as a float64 array; ValueError naming ``name`` if numpy cannot
    make one array of it (a ragged sequence), if it is not bool, integer or
    float (text, complex, object, datetime, ...), if, with ``finite``, it holds
    a NaN or an inf, or if it does not fit ``shape`` (when given: one extent
    per axis, None for any)."""
    try:
        array = np.asarray(values)
    except ValueError as err:  # a ragged sequence; numpy's reason is chained
        raise ValueError(f"{name} cannot be converted to float64") from err
    if array.dtype != np.float64:
        # the cast would parse text, drop an imaginary part, read None as NaN
        # or a date as its count of days
        if array.dtype.kind not in "biuf":
            raise ValueError(f"{name} must be real, got {array.dtype}")
        array = array.astype(np.float64)
    if finite and not np.isfinite(array).all():
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None:
        if array.ndim != len(shape):
            raise ValueError(f"{name} must be {len(shape)}-D, got {array.ndim}-D")
        if shape.count(None) != len(shape):  # a rank-only shape skips the loop, ~0.3 us
            for want, got in zip(shape, array.shape):
                if want is not None and want != got:
                    expected = repr(tuple("*" if e is None else e for e in shape))
                    expected = expected.replace("'", "")  # (20, *), not (20, '*')
                    raise ValueError(f"{name} must have shape {expected}, got {array.shape}")
    return array
