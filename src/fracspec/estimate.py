"""Statistical estimators: periodogram, empirical spectral function and the
fractional estimator."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import fracops
from .errors import _check_whole
from .grid import MAX_GRID_POINTS, TWO_PI, GridFunction, _check_grid_points, even_grid_function

if TYPE_CHECKING:
    from .gsim import SamplePath


def default_grid_points(n: int) -> int:
    """Evaluation grid fine enough for the downstream fractional quadrature."""
    return min(4 * max(_check_whole(n, "n", 1), 1024), MAX_GRID_POINTS - 1) + 1


def periodogram(path: SamplePath, num_points: int | None = None) -> GridFunction:
    """Evaluate the periodogram exactly at every point of the uniform grid.

    The trigonometric sum is a polynomial in exp(i lam); on the uniform grid
    it is one real FFT of the data, zero-padded to m = num_points - 1 points
    or, when n > m, folded onto m bins. That is exact at each requested lam
    (no interpolation); the data are real, so the upper half of the grid
    mirrors the lower. The mean the path was simulated with (`added_mean`) is
    subtracted first.
    """
    if num_points is None:
        num_points = default_grid_points(path.n)
    num_points = _check_grid_points(num_points, "num_points", auto=False)
    n = path.n
    m = num_points - 1
    demeaned = path.values - path.added_mean
    if n > m:
        # the time origin of the fold moves only the phase of the sum
        demeaned = np.bincount(np.arange(n) % m, weights=demeaned, minlength=m)
    transform = np.fft.rfft(demeaned, m)
    power = transform.real**2
    power += transform.imag**2
    power /= TWO_PI * n
    return even_grid_function(power, num_points)


def empirical_spectral_function(j: GridFunction) -> GridFunction:
    """Cumulative trapezoid integral of the periodogram; 0 at lam = 0."""
    return fracops.frac_integral(j, 1.0)


def frac_estimate(j: GridFunction, alpha: float, step: int = 1) -> GridFunction:
    """Fractional integral of order 1 - alpha applied to the periodogram, at
    every `step`-th grid point (see fracops.frac_integral)."""
    return fracops.frac_integral(j, 1.0 - fracops._check_alpha(alpha), step)
