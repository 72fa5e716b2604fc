"""Exception types shared across the package, and the one check of a whole number."""

import operator


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """A configuration file is malformed or contains an invalid value."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge to the requested tolerance."""


class SamplingError(NumericalError):
    """Exact Gaussian sampling is impossible for the requested model/size."""


def _check_whole(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """The one check of every count, size, seed and stream: value as an int if it is
    an int, a numpy integer or an integral float such as 512.0, within least ... most."""
    try:
        whole = int(value) if isinstance(value, float) and value.is_integer() else value
        value = operator.index(whole)
    except TypeError:
        raise DomainError(f"{name} must be a whole number, got {value!r}") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be at most {most}, got {value}")
    return value
