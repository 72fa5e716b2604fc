"""Statistical estimators: periodogram, empirical spectral function, the
fractional estimator, and the plug-in variance of the limit law."""

from __future__ import annotations

import math

import numpy as np

from . import fracops
from .errors import DomainError
from .grid import TWO_PI, GridFunction, even_grid_function
from .gsim import SamplePath

#: evaluation-grid ceiling; finer grids only add quadrature cost
MAX_GRID_POINTS = 65537

#: path-length ceiling of the CLI: at MAX_N `fejer` already allocates 53 MB grids
MAX_N = 2**20


def default_grid_points(n: int) -> int:
    """Evaluation grid fine enough for the downstream fractional quadrature."""
    return min(4 * max(int(n), 1024), MAX_GRID_POINTS - 1) + 1


def periodogram(path: SamplePath, num_points: int | None = None) -> GridFunction:
    """Evaluate the periodogram exactly at every point of the uniform grid.

    The trigonometric sum is a polynomial in exp(i lam); on the uniform grid
    it is one real FFT with index folding, which is exact at each requested
    lam (no interpolation); the data are real, so the upper half of the grid
    mirrors the lower. The mean the path was simulated with (`added_mean`) is
    subtracted first.
    """
    if num_points is None:
        num_points = default_grid_points(path.n)
    if num_points < 2:
        raise DomainError(f"periodogram needs num_points >= 2, got {num_points!r}")
    n = path.n
    m = num_points - 1
    demeaned = path.values - path.added_mean
    # the time origin of the fold moves only the phase of the sum
    folded = np.bincount(np.arange(n) % m, weights=demeaned, minlength=m)
    transform = np.fft.rfft(folded)
    return even_grid_function((transform.real**2 + transform.imag**2) / (TWO_PI * n), num_points)


def empirical_spectral_function(j: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral of the periodogram; 0 at lam = 0."""
    return fracops.frac_integral(j, 1.0)


def frac_estimate(j: GridFunction, alpha: float, step: int = 1) -> GridFunction:
    """Fractional integral of order 1 - alpha applied to the periodogram, at
    every `step`-th grid point (see fracops.frac_integral)."""
    if not (0.0 <= alpha < 0.5):
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    return fracops.frac_integral(j, 1.0 - alpha, step)


def plugin_variance(j: GridFunction, alpha: float, lam: float) -> float:
    """Plug-in estimate of the limit variance at lam.

    The limit variance is 4 pi Gamma(1-2a) / Gamma^2(1-a) * I^(1-2a)[f^2](lam).
    The statistic puts half the squared periodogram in place of f^2: for
    Gaussian data J is about f times an exponential variable, so E J^2 = 2 f^2.
    """
    if not (0.0 < alpha < 0.5):
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha!r}")
    if not (0.0 < lam <= TWO_PI + 1e-12):
        raise DomainError(f"lambda must lie in (0, 2*pi], got {lam!r}")
    squared = GridFunction(j.values**2, periodic=True)
    integral = fracops.frac_integral(squared, 1.0 - 2.0 * alpha).interp(min(lam, TWO_PI))
    scale = 4.0 * math.pi * math.gamma(1.0 - 2.0 * alpha) / math.gamma(1.0 - alpha) ** 2
    return 0.5 * scale * float(integral)
