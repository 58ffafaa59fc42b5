"""Exception types shared across the package, and the integer checks that
raise them."""

import operator


class ValidationError(ValueError):
    """Input data violates a documented invariant (bad scenario field, infeasible
    power profile, inconsistent shapes)."""


class ScenarioParseError(ValidationError):
    """A scenario file could not be parsed; the message carries the location."""


class ResourceError(RuntimeError):
    """A configured resource cap was exceeded (enumeration size, memory entries)."""


def check_count(name: str, value, least: int = 1) -> int:
    """``value``, an integer (numpy's too) of at least ``least``, as a Python
    int; else a ValidationError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
    return value


def check_seed(name: str, value) -> int:
    """A random seed: ``value``, a nonnegative integer, as a Python int."""
    return check_count(name, value, least=0)
