"""Exception types shared across the package, and the number checks that
raise them."""

import math
import numbers
import operator

import numpy as np


class ValidationError(ValueError):
    """Input data violates a documented invariant (bad scenario field, infeasible
    power profile, inconsistent shapes)."""


class ScenarioParseError(ValidationError):
    """A scenario file could not be parsed; the message carries the location."""


class ResourceError(RuntimeError):
    """A configured resource cap was exceeded (enumeration size, memory entries)."""


def check_count(name: str, value, least: int = 1) -> int:
    """``value``, an integer (numpy's too) of at least ``least``, as a Python
    int; else a ValidationError naming ``name``. A bool is refused, though
    ``operator.index(True)`` is 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
    return value


def check_seed(name: str, value) -> int:
    """A random seed: ``value``, a nonnegative integer, as a Python int."""
    return check_count(name, value, least=0)


def check_real(name: str, value) -> float:
    """``value``, a real number (numpy's too), as a Python float; else a
    ValidationError naming ``name``. A bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


_BOOLS = frozenset((bool, np.bool_))


def check_numbers(name: str, value) -> np.ndarray:
    """``value`` as a numpy array, if its kind is integer or real; else a
    ValidationError naming ``name``. Booleans are refused, as by check_real:
    an ndarray by its dtype, other input entry by entry, since numpy turns a
    boolean among numbers into a number. A ragged nesting is refused too."""
    if not isinstance(value, np.ndarray):
        try:
            array = np.asarray(value)
        except ValueError:  # numpy's "inhomogeneous shape"
            raise ValidationError(f"{name}: expected a rectangular array, got a ragged one") from None
        if array.dtype.kind in "iuf" and not _BOOLS.isdisjoint(
            map(type, np.asarray(value, dtype=object).flat)
        ):
            raise ValidationError(f"{name}: expected integers or reals, got a boolean entry")
        value = array
    if value.dtype.kind not in "iuf":
        raise ValidationError(f"{name}: expected integers or reals, got {value.dtype} entries")
    return value


def check_tolerance(name: str, value) -> float:
    """A tolerance: ``value``, a finite real number >= 0, as a Python float."""
    value = check_real(name, value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0")
    return value
