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
from typing import Iterable, Sequence

import numpy as np

from . import fracops
from .errors import DomainError, NumericalError, _check_whole
from .grid import TWO_PI, GridFunction, _check_grid_points, csv_table, even_grid_function

#: resolution of the high-accuracy truth profiles
TRUTH_POINTS = 65537

#: most probes of one limit covariance (the confidence band's num_probes, the
#: truth and mc probe_lambdas): it has MAX_PROBES (MAX_PROBES + 1) / 2 probe pairs
MAX_PROBES = 1024

#: path-length ceiling of every verb: at MAX_N `fejer` already allocates 53 MB grids
MAX_N = 2**20

#: Gauss nodes per panel of the limit-covariance product rule, and of the
#: larger rule it is checked against
_RULE_NODES = 12
_CHECK_NODES = 16
#: largest relative gap between the two rules before a NumericalError
_RULE_TOL = 1e-10
#: quadrature nodes per block of probe pairs: keeps each temporary near 1 MB
_BLOCK_NODES = 1 << 17
#: most Aberth-Ehrlich sweeps for the nodes of a Gauss rule (12 or 16 nodes
#: take 3 to 8 for exponents below 1), and the step, in x on [-1, 1], below
#: which the nodes have converged: four ulps of 1
_ROOT_SWEEPS = 32
_ROOT_STEP = 4.0 * 2.0**-52
#: most doublings in a geometric grading; 2^64 spans 2 pi from far below one ulp
_MAX_DOUBLINGS = 64


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
        lam = np.linspace(0.0, TWO_PI, _check_whole(num_points, "num_points", 2))
        return GridFunction(self.density(lam), periodic=True)


def autocovariance_batch(model: SpectralModel, mmax: int) -> np.ndarray:
    """r(0..mmax) as one array, r(m) = integral of cos(m lam) f(lam) over one period."""
    mmax = _check_whole(mmax, "mmax", 0)
    if model.kind == "constant":
        out = np.zeros(mmax + 1)
        out[0] = TWO_PI * model.c
        return out
    if model.kind == "ar1":
        return model.rho ** np.arange(mmax + 1, dtype=float)
    return _autocov_batch_custom(model, mmax)


def _autocov_batch_custom(model: SpectralModel, mmax: int) -> np.ndarray:
    """Exact integral of cos(m lam) against the piecewise-linear density.

    Integrating by parts twice leaves the jumps of the slope at the K grid
    nodes lam_j = 2 pi j / K: r(m) = sum_j d_j cos(m lam_j) / m^2 with
    d_j = slope_(j-1) - slope_j (cyclically), which is Re DFT(d)[m mod K] / m^2,
    one FFT for every lag. r(0) is the trapezoid rule.
    """
    g = model.grid_fn
    slope = np.diff(g.values) / g.spacing
    jumps = np.roll(slope, 1) - slope
    m = np.arange(1, mmax + 1)
    out = np.empty(mmax + 1)
    out[0] = float(np.trapezoid(g.values, g.grid))
    out[1:] = np.fft.fft(jumps).real[m % jumps.size] / m**2
    return out


def spectral_profile(model: SpectralModel, num_points: int) -> GridFunction:
    """F on a uniform grid: the fractional derivative of order 0."""
    return frac_truth_profile(model, 0.0, num_points)


def frac_truth_profile(
    model: SpectralModel, alpha: float, num_points: int, step: int = 1
) -> GridFunction:
    """F^(alpha) at every `step`-th point of a uniform grid of num_points
    points (`step` must divide num_points - 1), via high-resolution product
    integration; exact if constant.

    The density is integrated on the smallest grid of at least TRUTH_POINTS
    points that holds every point asked for, K (num_points - 1) + 1 points with
    K = ceil((TRUTH_POINTS - 1) / (num_points - 1)), by frac_integral's strided
    evaluation at stride K step, which computes only the points asked for.
    """
    fracops._check_alpha(alpha)
    num_points = _check_grid_points(num_points, "num_points", auto=False)
    step = _check_whole(step, "step", 1)
    if (num_points - 1) % step:
        raise DomainError(f"step must divide {num_points - 1}, got {step}")
    if model.kind == "constant":
        lam = np.linspace(0.0, TWO_PI, num_points)[::step]
        return GridFunction(model.c * lam ** (1.0 - alpha) / math.gamma(2.0 - alpha))
    k = -(-(TRUTH_POINTS - 1) // (num_points - 1))
    dens = model.density_grid(k * (num_points - 1) + 1)
    return fracops.frac_integral(dens, 1.0 - alpha, k * step)


def fejer_kernel(n: int, lam) -> np.ndarray | float:
    """Cesaro summability kernel of order n; takes the limit value n/(2*pi) at 0 mod 2*pi."""
    n = _check_whole(n, "n", 1)
    lam_arr = np.asarray(lam, dtype=float)
    half = np.sin(lam_arr / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(n * lam_arr / 2.0) ** 2 / (TWO_PI * n * half**2)
    out = np.where(np.abs(half) < 1e-14, n / TWO_PI, out)
    return float(out) if lam_arr.ndim == 0 else out


@np.errstate(over="ignore", invalid="ignore")
def expected_periodogram(model: SpectralModel, n: int, out_grid: int) -> GridFunction:
    """Fejer-smoothed density: the exact expectation of the periodogram.

    Evaluated through the Cesaro-weighted cosine series of the autocovariances,
    which equals the convolution of the density with the Fejer kernel. On the
    m-point circle cos(k lam) depends only on k mod m, so the coefficients are
    folded onto m bins and the series is one exact real FFT for every n.
    """
    n, out_grid = _check_whole(n, "n", 1), _check_whole(out_grid, "out_grid", 2)
    r = autocovariance_batch(model, n - 1)
    coeff = r * (1.0 - np.arange(n) / n)
    m_circle = out_grid - 1
    folded = np.bincount(np.arange(n) % m_circle, weights=coeff, minlength=m_circle)
    mean = (2.0 * np.fft.rfft(folded).real - coeff[0]) / TWO_PI
    return even_grid_function(mean, out_grid, f"Fejer mean of n = {n}")


def _check_n_list(n_list: Iterable[int]) -> tuple[int, ...]:
    """Refuse an empty n_list or a size outside 1 ... MAX_N; return the sizes
    as ints. The mc plan and the fejer verb call it before the model is read."""
    sizes = tuple(_check_whole(n, "n_list", 1, MAX_N) for n in n_list)
    if not sizes:
        raise DomainError("n_list must hold at least one size")
    return sizes


def _fejer_bias(model: SpectralModel, n: int) -> tuple[float, float]:
    """(sup |Fejer-smoothed f - f|, omega(f, 1/n) |ln omega(f, 1/n)|)."""
    pts = int(math.ceil(TWO_PI * n)) + 2
    dens = model.density_grid(pts)
    smoothed = expected_periodogram(model, n, pts)
    sup_err = float(np.max(np.abs(smoothed.values - dens.values)))
    omega = fracops.modulus_of_continuity(dens, max(1.0 / n, dens.spacing))
    bound = omega * abs(math.log(omega)) if omega > 0 else 0.0
    return sup_err, bound


def beta_sq(model: SpectralModel, lam: float) -> float:
    """4*pi * integral of f^2 from 0 to lam."""
    if not (0.0 <= lam <= TWO_PI + 1e-12):
        raise DomainError(f"lambda must lie in [0, 2*pi], got {lam!r}")
    lam = min(lam, TWO_PI)
    if model.kind == "constant":
        return 4.0 * math.pi * model.c**2 * lam
    # at alpha = 0 the limit variance is 4*pi * integral of f^2 and Gamma(1) = 1
    return theta_point(model, 0.0, lam, lam)


@dataclass(frozen=True, eq=False)
class LimitCovariance:
    """Limit covariance of the scaled estimator process on a probe grid.

    Where Theta factors by Cholesky, `matrix` holds its values as computed
    and `factor` is that Cholesky factor. Otherwise (a repeated probe, say)
    `matrix` is Theta's projection onto the PSD cone, `factor` the
    projection's square root from its eigenvectors, and `clip_applied` says
    whether the projection set a negative eigenvalue to zero; on the Cholesky
    path it is False.
    """

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


@lru_cache(maxsize=16)
def _gauss_jacobi(exponent: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the size-point Gauss rule on [0, 1] for
    the weight t^-exponent; exponent 0 gives Gauss-Legendre.

    The Jacobi matrix of the weight (1 + x)^b on [-1, 1], b = -exponent, has
    the diagonal a_k and the off-diagonal b_k. Its eigenvalues (Golub-Welsch)
    are the roots of the monic p_(k+1) = (x - a_k) p_k - b_k^2 p_(k-1), found
    all at once by Aberth-Ehrlich iteration from the Gauss-Legendre guesses
    and mapped by t = (1 + x) / 2. A node's weight is the mass of the weight
    on [0, 1], 1 / (1 + b), over the sum of q_k^2, q_k the orthonormal
    polynomials of the same recurrence: the squared first component of its
    unit eigenvector. No eigensolver runs, so the rule does not depend on
    the LAPACK build.
    """
    b = -exponent
    k = np.arange(1, size, dtype=float)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = np.sqrt(4.0 * k * k * (k + b) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x = -np.cos(math.pi * (np.arange(1, size + 1) - 0.25) / (size + 0.5))
    for _ in range(_ROOT_SWEEPS):
        # p_size and its derivative at every node
        p_prev, p = np.ones(size), x - diag[0]
        dp_prev, dp = np.zeros(size), np.ones(size)
        for a_k, b_sq in zip(diag[1:], off**2):
            p_prev, p, dp_prev, dp = (
                p, (x - a_k) * p - b_sq * p_prev, dp, p + (x - a_k) * dp - b_sq * dp_prev
            )
        newton = p / dp
        gaps = x[:, None] - x
        np.fill_diagonal(gaps, np.inf)
        step = newton / (1.0 - newton * np.sum(1.0 / gaps, axis=1))
        x = x - step
        if np.max(np.abs(step)) <= _ROOT_STEP:
            break
    else:
        raise NumericalError(
            f"Gauss-Jacobi nodes for exponent {exponent:g}, size {size} did not "
            f"converge in {_ROOT_SWEEPS} sweeps"
        )
    x.sort()
    q_prev, q, norm = np.zeros(size), np.ones(size), np.ones(size)
    for a_k, b_prev, b_k in zip(diag, np.concatenate(([0.0], off)), off):
        q_prev, q = q, ((x - a_k) * q - b_prev * q_prev) / b_k
        norm += q * q
    nodes, weights = 0.5 * (1.0 + x), 1.0 / (1.0 + b) / norm
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _geometric(start: np.ndarray, step: np.ndarray, reach: float) -> np.ndarray:
    """start + step 2^k, one row per pair, for k = 0, 1, ... until |step| 2^k >= reach."""
    doublings = int(np.ceil(np.log2(max(reach / np.min(np.abs(step)), 1.0))))
    return start[:, None] + step[:, None] * 2.0 ** np.arange(1 + min(_MAX_DOUBLINGS, doublings))


def _density_cuts(model: SpectralModel, origin: np.ndarray, sign: float) -> np.ndarray:
    """Panel ends, in t, that resolve f^2(origin + sign t), one row per pair.

    A custom density is piecewise linear, so f^2 is quadratic between its grid
    points, and those are the cuts. An AR(1) density has poles at a distance
    -ln|rho| from its peak (nu = 0 and 2 pi for rho > 0, pi for rho < 0), so
    the cuts start at the peak and double away from it from that width.
    """
    if model.kind == "custom_grid":
        return sign * (model.grid_fn.grid - origin[:, None])
    if model.kind == "constant" or model.rho == 0.0:
        return np.empty((origin.size, 0))
    width = -math.log(abs(model.rho))
    peaks = (0.0, TWO_PI) if model.rho > 0.0 else (math.pi,)
    cuts = []
    for peak in peaks:
        at = sign * (peak - origin)
        for step in (-width, width):
            cuts.append(_geometric(at - step, np.full_like(at, step), TWO_PI))
    return np.concatenate(cuts, axis=1)


def _panel_ends(length: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Sorted panel ends on [0, length], one row per pair.

    The first panel ends at the smallest cut in (0, length]. From there the
    ends double toward length, so every later panel is at least its own width
    away from the endpoint singularity at t = 0. Rows are padded with length
    to the longest row; the padding panels have zero width.
    """
    cuts = np.concatenate((cuts, length[:, None]), axis=1)
    first = np.min(np.where(cuts > 0.0, cuts, np.inf), axis=1)
    grading = _geometric(2.0 * first, 2.0 * first, float(np.max(length)))
    ends = np.clip(np.concatenate((cuts, grading), axis=1), first[:, None], None)
    ends.sort(axis=1)
    # drop repeated ends and those past length: move them to the back, keep
    # as many columns as the row with the most panels needs, and pad with length
    spare = np.concatenate((np.zeros((len(ends), 1), bool), ends[:, 1:] <= ends[:, :-1]), axis=1)
    spare |= ends > length[:, None]
    ends[spare] = np.inf
    ends.sort(axis=1)
    keep = ends.shape[1] - int(np.min(np.sum(spare, axis=1)))
    return np.minimum(ends[:, :keep], length[:, None])


def _panel_rule(ends: np.ndarray, exponent: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, one row per pair, of a composite rule for
    t^-exponent g(t) dt on [0, ends[:, -1]]: Gauss-Jacobi on [0, ends[:, 0]],
    then Gauss-Legendre on each panel between consecutive ends with
    t^-exponent folded into the weights. Zero-width panels weigh nothing."""
    xj, wj = _gauss_jacobi(exponent, size)
    xl, wl = _gauss_jacobi(0.0, size)
    first = ends[:, :1]
    width = np.diff(ends, axis=1)[:, :, None]
    nodes = (ends[:, :-1, None] + width * xl).reshape(len(ends), -1)
    weights = (width * wl).reshape(len(ends), -1) * nodes**-exponent
    return (
        np.concatenate((first * xj, nodes), axis=1),
        np.concatenate((first ** (1.0 - exponent) * wj, weights), axis=1),
    )


# an f^2 that overflows sums to inf or nan, which theta_point refuses by name
@np.errstate(over="ignore", invalid="ignore")
def _one_sided(
    model: SpectralModel, alpha: float, origin: np.ndarray, sign: float,
    length: np.ndarray, exponent: float, pole: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integral over t in [0, length] of t^-exponent |t - pole|^-alpha
    f^2(origin + sign t), per pair, and the gap to a rule with more nodes.

    pole lies outside [0, length]; without one the factor is 1. A pole below
    0 (the direct kernel off the diagonal) adds cuts at -pole (2^(k+1) - 1), so
    each panel is at least its width away from it; the mirror's pole at
    2 length is half the window away and needs none. Evaluated in blocks of
    pairs of about _BLOCK_NODES nodes.
    """
    value, gap = np.empty(origin.size), np.empty(origin.size)
    per_pair = _CHECK_NODES * (_density_cuts(model, origin[:1], sign).shape[1] + _MAX_DOUBLINGS)
    block = max(1, _BLOCK_NODES // per_pair)
    for start in range(0, origin.size, block):
        part = slice(start, start + block)
        cuts = _density_cuts(model, origin[part], sign)
        if pole is not None and np.all(pole[part] < 0.0):
            below = pole[part]
            grading = _geometric(below, -2.0 * below, float(np.max(length[part])))
            cuts = np.concatenate((cuts, grading), axis=1)
        ends = _panel_ends(length[part], cuts)
        sums = []
        for size in (_RULE_NODES, _CHECK_NODES):
            t, w = _panel_rule(ends, exponent, size)
            if pole is not None:
                w = w * np.abs(t - pole[part, None]) ** -alpha
            sums.append(np.sum(w * model.density(origin[part, None] + sign * t) ** 2, axis=1))
        value[part] = sums[1]
        gap[part] = np.abs(sums[1] - sums[0])
    return value, gap


def _direct(model: SpectralModel, alpha: float, lam: np.ndarray, mu: np.ndarray):
    """Integral of f^2(nu) (lam-nu)^-a (mu-nu)^-a over [0, mu] for lam >= mu,
    and its quadrature error estimate.

    In t = mu - nu the singular factor is t^-a off the diagonal and t^-2a on
    it; it is the Gauss-Jacobi weight of the first panel.
    """
    value, gap = np.zeros(mu.shape), np.zeros(mu.shape)
    diag = (lam == mu) & (mu > 0.0)
    off = (lam != mu) & (mu > 0.0)
    if diag.any():
        value[diag], gap[diag] = _one_sided(model, alpha, mu[diag], -1.0, mu[diag], 2.0 * alpha)
    if off.any():
        value[off], gap[off] = _one_sided(
            model, alpha, mu[off], -1.0, mu[off], alpha, pole=mu[off] - lam[off]
        )
    return value, gap


def _mirror(model: SpectralModel, alpha: float, lam: np.ndarray, mu: np.ndarray):
    """Integral of f^2(nu) (lam-nu)^-a (nu-(2 pi - mu))^-a over the overlap window,
    and its quadrature error estimate.

    Nonzero only when lam + mu > 2 pi; captures the exact correlation between
    the periodogram at nu and its mirror point 2 pi - nu for real samples.
    Each half of the window is a one-sided rule from its singular end.
    """
    lo, hi = TWO_PI - mu, lam
    value, gap = np.zeros(mu.shape), np.zeros(mu.shape)
    act = hi > lo + 1e-15
    if not act.any():
        return value, gap
    half = 0.5 * (hi[act] - lo[act])
    for origin, sign in ((lo[act], 1.0), (hi[act], -1.0)):
        part, part_gap = _one_sided(model, alpha, origin, sign, half, alpha, pole=2.0 * half)
        value[act] += part
        gap[act] += part_gap
    return value, gap


def theta_point(model: SpectralModel, alpha: float, lam, mu, real_symmetry: bool = False):
    """Limit covariance of the scaled estimator process at probe pairs.

    lam and mu lie in [0, 2 pi] and broadcast against each other; a float comes
    back for scalars.
    With real_symmetry=False this is the even-weight convention
    (4 pi / Gamma^2(1-a)) * direct integral. With real_symmetry=True the
    one-sided weight applied to a real sample gives half that constant plus a
    mirror term active when lam + mu > 2 pi; this matches simulation.
    A value that is not finite, or not positive (f^2 overflowed or underflowed;
    it is 0 only where the smaller point is 0), or a gap above _RULE_TOL
    (relative) between the product rule and one with more nodes, is a
    NumericalError naming the pair.
    """
    fracops._check_alpha(alpha)
    lam, mu = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(mu, dtype=float))
    hi, lo = np.maximum(lam, mu), np.minimum(lam, mu)
    # closed at 0, which beta_sq asks for; a nan pair is outside too
    outside = ~((lo >= 0.0) & (hi <= TWO_PI))
    if outside.any():
        i = np.flatnonzero(outside.ravel())[0]
        pair = f"({lam.ravel()[i]:g}, {mu.ravel()[i]:g})"
        raise DomainError(f"(lam, mu) must lie in [0, 2*pi], got {pair}")
    value, gap = _direct(model, alpha, hi, lo)
    scale = 4.0 * math.pi / math.gamma(1.0 - alpha) ** 2
    if real_symmetry:
        mirror, mirror_gap = _mirror(model, alpha, hi, lo)
        value, gap, scale = value + mirror, gap + mirror_gap, 0.5 * scale
    out = scale * value
    bad = ~np.isfinite(out) | ((out <= 0.0) & (lo > 0.0)) | (gap > _RULE_TOL * np.abs(value))
    if bad.any():
        i = np.flatnonzero(bad.ravel())[0]
        raise NumericalError(
            f"limit covariance {out.ravel()[i]:g} with quadrature error {gap.ravel()[i]:g} "
            f"at (lam, mu)=({hi.ravel()[i]:g}, {lo.ravel()[i]:g})"
        )
    return float(out) if out.ndim == 0 else out


def _check_probes(probes: Iterable[float]) -> tuple[float, ...]:
    """Refuse probe_lambdas that are not a 1-d list, then a count out of
    bounds, then a probe out of (0, 2 pi]; return them as floats. This is
    limit_covariance's probe check, and the mc plan and the truth verb call it
    before the model is read."""
    values = np.asarray(probes, dtype=float)
    if values.ndim != 1:
        raise DomainError(f"probe_lambdas must be a 1-d list, got shape {values.shape}")
    if not 1 <= values.size <= MAX_PROBES:
        raise DomainError(
            f"probe_lambdas must hold between 1 and {MAX_PROBES} values, got {values.size}"
        )
    probes = tuple(values.tolist())
    if not all(0.0 < p <= TWO_PI for p in probes):
        raise DomainError(f"probe_lambdas must lie in (0, 2*pi], got {probes!r}")
    return probes


def limit_covariance(
    model: SpectralModel,
    alpha: float,
    probe_grid: Sequence[float],
    real_symmetry: bool = False,
) -> LimitCovariance:
    """Covariance matrix of the limit process on a probe grid, and its factor.

    Theta is factored by Cholesky first. Only when that fails is it sent
    through its eigendecomposition V diag(w) V^T: negative eigenvalues are
    clipped to zero, and V diag(sqrt(w)) is the projection's exact square root.
    """
    fracops._check_alpha(alpha)
    probes = np.array(_check_probes(probe_grid))
    rows, cols = np.tril_indices(probes.size)
    mat = np.empty((probes.size, probes.size))
    mat[rows, cols] = mat[cols, rows] = theta_point(
        model, alpha, probes[rows], probes[cols], real_symmetry=real_symmetry
    )
    try:
        return LimitCovariance(probes, mat, np.linalg.cholesky(mat), False)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(mat)
    clipped = np.clip(eigvals, 0.0, None)
    projected = (eigvecs * clipped) @ eigvecs.T
    projected = 0.5 * (projected + projected.T)
    return LimitCovariance(probes, projected, eigvecs * np.sqrt(clipped), bool(eigvals[0] < 0.0))
