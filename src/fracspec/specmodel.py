"""Spectral density models and their deterministic ground-truth quantities.

Everything the Monte Carlo harness compares against lives here:
autocovariances, the spectral function, its fractional derivative, the
Fejer-smoothed periodogram expectation, and the limit covariance of the
scaled estimator process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fracops
from .errors import DomainError, NumericalError
from .grid import TWO_PI, GridFunction, csv_table

#: resolution of the cached high-accuracy truth profiles
TRUTH_POINTS = 65537


def _quad(integrand, lo: float, hi: float, max_err: float, name: str, where: str) -> float:
    """quad at 1e-12 tolerance; an error estimate above max_err is a NumericalError."""
    from scipy.integrate import quad  # imported on use: most verbs never integrate

    val, err = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)
    if err > max_err:
        raise NumericalError(f"{name} quadrature error {err:g}{where}")
    return val


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Even, continuous, strictly positive spectral density on [0, 2*pi]."""

    kind: str
    c: float | None = None
    rho: float | None = None
    grid_fn: GridFunction | None = None

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if self.c is None or not (self.c > 0 and math.isfinite(self.c)):
                raise DomainError(f"constant model needs c > 0, got {self.c!r}")
        elif self.kind == "ar1":
            if self.rho is None or not (-1.0 < self.rho < 1.0):
                raise DomainError(f"ar1 model needs rho in (-1, 1), got {self.rho!r}")
        elif self.kind == "custom_grid":
            g = self.grid_fn
            if g is None:
                raise DomainError("custom_grid model needs a GridFunction density")
            if np.min(g.values) <= 0:
                raise DomainError("custom density must be strictly positive")
            if np.max(np.abs(g.values - g.values[::-1])) > 1e-12:
                raise DomainError("custom density must satisfy f(lam) = f(2*pi - lam)")
        else:
            raise DomainError(f"unknown model kind {self.kind!r}")

    @classmethod
    def constant(cls, c: float) -> "SpectralModel":
        return cls("constant", c=c)

    @classmethod
    def ar1(cls, rho: float) -> "SpectralModel":
        return cls("ar1", rho=rho)

    @classmethod
    def custom(cls, grid_fn: GridFunction) -> "SpectralModel":
        return cls("custom_grid", grid_fn=grid_fn)

    @property
    def model_id(self) -> str:
        if self.kind == "constant":
            return f"constant(c={self.c:.17g})"
        if self.kind == "ar1":
            return f"ar1(rho={self.rho:.17g})"
        return f"custom_grid(points={self.grid_fn.num_points})"

    def density(self, lam) -> np.ndarray | float:
        lam_arr = np.asarray(lam, dtype=float)
        if self.kind == "constant":
            out = np.full_like(lam_arr, self.c)
        elif self.kind == "ar1":
            rho = self.rho
            out = (1.0 - rho**2) / (1.0 - 2.0 * rho * np.cos(lam_arr) + rho**2) / (2.0 * math.pi)
        else:
            out = np.interp(np.mod(lam_arr, TWO_PI), self.grid_fn.grid, self.grid_fn.values)
        return float(out) if lam_arr.ndim == 0 else out

    def density_grid(self, num_points: int) -> GridFunction:
        lam = np.linspace(0.0, TWO_PI, num_points)
        return GridFunction(self.density(lam), periodic=True)

    @classmethod
    def from_mapping(cls, mapping: dict, base_dir: Path | None = None) -> "SpectralModel":
        known = {"kind", "c", "rho", "grid_csv_path"}
        unknown = set(mapping) - known
        if unknown:
            raise DomainError(f"unknown model key(s): {sorted(unknown)}")
        kind = mapping.get("kind")
        if kind is None:
            raise DomainError("model config is missing required key 'kind'")
        if kind == "constant":
            if "c" not in mapping:
                raise DomainError("constant model config is missing key 'c'")
            return cls.constant(float(mapping["c"]))
        if kind == "ar1":
            if "rho" not in mapping:
                raise DomainError("ar1 model config is missing key 'rho'")
            return cls.ar1(float(mapping["rho"]))
        if kind == "custom_grid":
            if "grid_csv_path" not in mapping:
                raise DomainError("custom_grid model config is missing key 'grid_csv_path'")
            path = Path(mapping["grid_csv_path"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            return cls.custom(GridFunction.from_csv(path, periodic=True))
        raise DomainError(f"unknown model kind {kind!r}")


def autocovariance_batch(model: SpectralModel, mmax: int) -> np.ndarray:
    """r(0..mmax) as one array, r(m) = integral of cos(m lam) f(lam) over one period."""
    if model.kind == "constant":
        out = np.zeros(mmax + 1)
        out[0] = TWO_PI * model.c
        return out
    if model.kind == "ar1":
        return model.rho ** np.arange(mmax + 1, dtype=float)
    return _autocov_batch_custom(model, mmax)


def _autocov_batch_custom(model: SpectralModel, mmax: int) -> np.ndarray:
    # exact integral of cos(m lam) against the piecewise-linear density
    g = model.grid_fn
    lam = g.grid
    v = g.values
    a0, a1 = lam[:-1], lam[1:]
    f0, f1 = v[:-1], v[1:]
    slope = (f1 - f0) / (a1 - a0)
    out = np.empty(mmax + 1)
    out[0] = float(np.trapezoid(v, lam))
    for m in range(1, mmax + 1):
        s1, s0 = np.sin(m * a1), np.sin(m * a0)
        c1, c0 = np.cos(m * a1), np.cos(m * a0)
        term = (f1 * s1 - f0 * s0) / m + slope * (c1 - c0) / m**2
        out[m] = float(np.sum(term))
    return out


@lru_cache(maxsize=64)
def spectral_profile(model: SpectralModel, num_points: int) -> GridFunction:
    """F on a uniform grid, by cumulative trapezoid of a fine density grid."""
    dens = model.density_grid(max(num_points, TRUTH_POINTS))
    integ = fracops.frac_integral(dens, 1.0)
    if integ.num_points == num_points:
        return integ
    return GridFunction(integ.interp(np.linspace(0.0, TWO_PI, num_points)))


@lru_cache(maxsize=64)
def frac_truth_profile(model: SpectralModel, alpha: float, num_points: int) -> GridFunction:
    """F^(alpha) on a uniform grid via high-resolution product integration."""
    if not (0.0 <= alpha < 0.5):
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    if model.kind == "constant":
        lam = np.linspace(0.0, TWO_PI, num_points)
        return GridFunction(model.c * lam ** (1.0 - alpha) / math.gamma(2.0 - alpha))
    dens = model.density_grid(max(num_points, TRUTH_POINTS))
    prof = fracops.frac_integral(dens, 1.0 - alpha)
    if prof.num_points == num_points:
        return prof
    return GridFunction(prof.interp(np.linspace(0.0, TWO_PI, num_points)))


def fejer_kernel(n: int, lam) -> np.ndarray | float:
    """Cesaro summability kernel of order n; takes the limit value n/(2*pi) at 0 mod 2*pi."""
    if int(n) < 1:
        raise DomainError(f"fejer_kernel needs n >= 1, got {n!r}")
    n = int(n)
    lam_arr = np.asarray(lam, dtype=float)
    half = np.sin(lam_arr / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(n * lam_arr / 2.0) ** 2 / (TWO_PI * n * half**2)
    out = np.where(np.abs(half) < 1e-14, n / TWO_PI, out)
    return float(out) if lam_arr.ndim == 0 else out


def expected_periodogram(model: SpectralModel, n: int, out_grid: int) -> GridFunction:
    """Fejer-smoothed density: the exact expectation of the periodogram.

    Evaluated through the Cesaro-weighted cosine series of the autocovariances,
    which equals the convolution of the density with the Fejer kernel. On the
    m-point circle cos(k lam) depends only on k mod m, so the coefficients are
    folded onto m bins and the series is one exact FFT for every n.
    """
    if int(n) < 1:
        raise DomainError(f"expected_periodogram needs n >= 1, got {n!r}")
    n = int(n)
    if out_grid < 2:
        raise DomainError("out_grid must be >= 2")
    r = autocovariance_batch(model, n - 1)
    coeff = r * (1.0 - np.arange(n) / n)
    m_circle = out_grid - 1
    folded = np.bincount(np.arange(n) % m_circle, weights=coeff, minlength=m_circle)
    series = np.fft.ifft(folded).real * m_circle
    vals = (2.0 * series - coeff[0]) / TWO_PI
    vals = np.concatenate((vals, vals[:1]))
    return GridFunction(vals, periodic=True)


def beta_sq(model: SpectralModel, lam: float) -> float:
    """4*pi * integral of f^2 from 0 to lam."""
    if not (0.0 <= lam <= TWO_PI + 1e-12):
        raise DomainError(f"lambda must lie in [0, 2*pi], got {lam!r}")
    lam = min(lam, TWO_PI)
    if model.kind == "constant":
        return 4.0 * math.pi * model.c**2 * lam
    return 4.0 * math.pi * _quad(lambda x: model.density(x) ** 2, 0.0, lam, 1e-10, "beta_sq", "")


@dataclass(frozen=True, eq=False)
class LimitCovariance:
    """Limit covariance of the scaled estimator process on a probe grid."""

    alpha: float
    probe_grid: np.ndarray
    matrix: np.ndarray
    factor: np.ndarray
    clip_applied: bool

    def __post_init__(self) -> None:
        for name in ("probe_grid", "matrix", "factor"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_csv_text(self, comments: Sequence[str] = ()) -> str:
        """The probe grid as the header line, then one line per matrix row."""
        header = ",".join(f"{x:.17g}" for x in self.probe_grid)
        return csv_table(header, self.matrix, comments)


def _kernel_direct(model: SpectralModel, alpha: float, lam: float, mu: float) -> float:
    """Integral of f^2(nu) (lam-nu)^-a (mu-nu)^-a over [0, min(lam, mu)]."""
    lam, mu = max(lam, mu), min(lam, mu)
    if mu == 0.0:
        return 0.0
    if alpha == 0.0:
        return beta_sq(model, mu) / (4.0 * math.pi)
    # the singularity at nu = mu has exponent a (off-diagonal) or 2a (diagonal);
    # the substitution s = (mu - nu)^(1-exponent) makes the integrand bounded
    p = 2.0 * alpha if lam == mu else alpha
    q = 1.0 / (1.0 - p)

    def integrand(s: float) -> float:
        gap = s**q
        nu = mu - gap
        extra = 1.0 if lam == mu else (lam - mu + gap) ** (-alpha)
        return model.density(nu) ** 2 * extra

    where = f" at (lam, mu)=({lam:g}, {mu:g})"
    return q * _quad(integrand, 0.0, mu ** (1.0 - p), 1e-8, "limit covariance", where)


def _kernel_mirror(model: SpectralModel, alpha: float, lam: float, mu: float) -> float:
    """Integral of f^2(nu) (lam-nu)^-a (nu-(2 pi - mu))^-a over the overlap window.

    Nonzero only when lam + mu > 2 pi; captures the exact correlation between
    the periodogram at nu and its mirror point 2 pi - nu for real samples.
    """
    lam, mu = max(lam, mu), min(lam, mu)
    lo, hi = TWO_PI - mu, lam
    if hi <= lo + 1e-15:
        return 0.0
    if alpha == 0.0:
        return (beta_sq(model, hi) - beta_sq(model, lo)) / (4.0 * math.pi)
    mid = 0.5 * (lo + hi)
    q = 1.0 / (1.0 - alpha)

    def lower(s: float) -> float:
        gap = s**q
        nu = lo + gap
        return model.density(nu) ** 2 * (hi - nu) ** (-alpha)

    def upper(s: float) -> float:
        gap = s**q
        nu = hi - gap
        return model.density(nu) ** 2 * (nu - lo) ** (-alpha)

    where = f" at (lam, mu)=({lam:g}, {mu:g})"
    total = 0.0
    for part, limit in ((lower, mid - lo), (upper, hi - mid)):
        total += q * _quad(part, 0.0, limit ** (1.0 - alpha), 1e-8, "mirror covariance", where)
    return total


def theta_point(
    model: SpectralModel, alpha: float, lam: float, mu: float, real_symmetry: bool = False
) -> float:
    """Limit covariance of the scaled estimator process at one probe pair.

    With real_symmetry=False this is the even-weight convention
    (4 pi / Gamma^2(1-a)) * direct integral. With real_symmetry=True the
    one-sided weight applied to a real sample gives half that constant plus a
    mirror term active when lam + mu > 2 pi; this matches simulation.
    """
    if not (0.0 <= alpha < 0.5):
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    gsq = math.gamma(1.0 - alpha) ** 2
    direct = _kernel_direct(model, alpha, lam, mu)
    if not real_symmetry:
        return 4.0 * math.pi / gsq * direct
    mirror = _kernel_mirror(model, alpha, lam, mu)
    return 2.0 * math.pi / gsq * (direct + mirror)


def theta_diagonal(
    model: SpectralModel, alpha: float, lam: float, real_symmetry: bool = False
) -> float:
    """Limit variance at lam; constant densities use the closed form."""
    if not (0.0 <= alpha < 0.5):
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    if model.kind == "constant" and not real_symmetry:
        if alpha == 0.0:
            return beta_sq(model, lam)
        gsq = math.gamma(1.0 - alpha) ** 2
        return 4.0 * math.pi / gsq * model.c**2 * lam ** (1.0 - 2.0 * alpha) / (1.0 - 2.0 * alpha)
    return theta_point(model, alpha, lam, lam, real_symmetry=real_symmetry)


def limit_covariance(
    model: SpectralModel,
    alpha: float,
    probe_grid: Sequence[float],
    real_symmetry: bool = False,
) -> LimitCovariance:
    """Covariance matrix of the limit process on a probe grid, PSD-projected and factorized."""
    if not (0.0 <= alpha < 0.5):
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    probes = np.asarray(probe_grid, dtype=float)
    if probes.ndim != 1 or probes.size == 0:
        raise DomainError("probe_grid must be a non-empty 1-d array")
    if np.any(probes <= 0.0) or np.any(probes > TWO_PI + 1e-12):
        raise DomainError("probes must lie in (0, 2*pi]")
    k = probes.size
    mat = np.empty((k, k))
    for i in range(k):
        mat[i, i] = theta_diagonal(model, alpha, probes[i], real_symmetry=real_symmetry)
        for j in range(i):
            val = theta_point(model, alpha, probes[i], probes[j], real_symmetry=real_symmetry)
            mat[i, j] = mat[j, i] = val
    eigvals, eigvecs = np.linalg.eigh(mat)
    clip = bool(eigvals[0] < 0.0)
    projected = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
    projected = 0.5 * (projected + projected.T)
    factor = _psd_cholesky(projected)
    return LimitCovariance(alpha, probes, projected, factor, clip)


def _psd_cholesky(mat: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.diag(mat))) or 1.0
    jitter = 0.0
    for _ in range(8):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(mat.shape[0]))
        except np.linalg.LinAlgError:
            jitter = scale * 1e-14 if jitter == 0.0 else jitter * 10.0
    raise NumericalError("PSD factorization failed after jitter escalation")
