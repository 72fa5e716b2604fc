"""Fractional spectral-derivative estimation for stationary Gaussian series."""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, NumericalError, SamplingError

__all__ = [
    "ConfigError",
    "DomainError",
    "GridFunction",
    "NumericalError",
    "SamplingError",
    "TWO_PI",
    "__version__",
]


def __getattr__(name: str):
    # numpy loads with `grid`, not with the package, so the CLI can pick BLAS threading first
    if name in ("GridFunction", "TWO_PI"):
        from . import grid

        return getattr(grid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
