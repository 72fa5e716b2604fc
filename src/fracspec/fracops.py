"""Riemann-Liouville fractional calculus on uniform grids, plus regularity measures.

The fractional integral uses product integration: the weakly singular kernel
(x - t)^(order-1) is integrated exactly against the piecewise-linear
interpolant of the data, so the scheme is exact for piecewise-linear inputs.
The fractional derivative of order a is the grid derivative of the fractional
integral of order 1 - a.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, _check_whole
from .grid import TWO_PI, GridFunction

# direct three-term weight formula below this index, binomial series above;
# keeps the relative weight error near machine precision for all k
_SERIES_CUTOFF = 16
_SERIES_TERMS = 9

# outputs at the first grid points are summed directly: the FFT's rounding
# error scales with the largest output, and the outputs near x = 0 are small
_DIRECT_POINTS = 64

# floats in the spectra of one group of phases of the phase-split FFT, 256 KiB
# each: with the weights' series beside them a call on 65,537 points peaks at
# 1.4-1.7 MiB; groups four times larger ran slower and raised mc's peak RSS
_PHASE_FLOATS = 1 << 15

# weights per row block of the strided evaluation's weight matrix, so building it
# holds a few small temporaries beside the matrix, not seven the size of the grid
_BLOCK_WEIGHT_FLOATS = 1 << 12


def _fft_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target, the length scipy.fft.next_fast_len(target, True) picks.

    Each odd part 3^i 5^j is padded by the least power of two; an odd part at
    or above the best length so far cannot give a shorter one, and the first
    best, a power of two, is below 2 target.
    """
    best = 1 << (target - 1).bit_length()
    p3 = 1
    while p3 < best:
        p = p3
        while p < best:
            best = min(best, p << (-(-target // p) - 1).bit_length())
            p *= 5
        p3 *= 3
    return best


def _binom(gamma: float, m: int) -> float:
    # generalized binomial coefficient C(gamma, m)
    out = 1.0
    for j in range(m):
        out *= (gamma - j) / (j + 1)
    return out


def _central_weights(gamma: float, k: np.ndarray) -> np.ndarray:
    """The product rule's weights a[k]: a[0] = 1, where the formula is nan for a
    non-integer g, and (k+1)^g - 2 k^g + (k-1)^g above, computed stably for large k."""
    out = np.ones(k.size)
    small = (0 < k) & (k < _SERIES_CUTOFF)
    ks = k[small].astype(float)
    out[small] = (ks + 1.0) ** gamma - 2.0 * ks**gamma + (ks - 1.0) ** gamma
    large = k >= _SERIES_CUTOFF
    kl = k[large].astype(float)
    if kl.size:
        # k^g * [(1+x)^g + (1-x)^g - 2] with x = 1/k, summed as an even series
        x2 = 1.0 / kl**2
        acc = np.zeros_like(kl)
        for m in range(_SERIES_TERMS, 0, -1):
            acc = x2 * (acc + 2.0 * _binom(gamma, 2 * m))
        out[large] = kl**gamma * acc
    return out


def _left_weights(gamma: float, n: np.ndarray) -> np.ndarray:
    """(n-1)^g - n^g + g n^(g-1), computed stably for large n."""
    out = np.empty(n.size)
    small = n < _SERIES_CUTOFF
    ns = n[small].astype(float)
    out[small] = (ns - 1.0) ** gamma - ns**gamma + gamma * ns ** (gamma - 1.0)
    nl = n[~small].astype(float)
    if nl.size:
        # n^g * [(1-x)^g - 1 + g x] with x = 1/n
        x = 1.0 / nl
        acc = np.zeros_like(nl)
        for m in range(_SERIES_TERMS + 1, 1, -1):
            acc = x * (acc + _binom(gamma, m) * (-1.0) ** m)
        out[~small] = nl**gamma * acc * x
    return out


@lru_cache(maxsize=8)
def _product_weights(order: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Read-only real FFT of the central weights, their first _DIRECT_POINTS
    values, the left weights, and the FFT length: a 5-smooth length >= 2n - 3,
    so the circular product is the full linear convolution."""
    gamma = order + 1.0
    size = _fft_length(2 * n - 3)
    a = _central_weights(gamma, np.arange(n - 1))
    a_hat = np.fft.rfft(a, size)
    a_head = a[:_DIRECT_POINTS].copy()
    b = _left_weights(gamma, np.arange(1, n))
    for arr in (a_hat, a_head, b):
        arr.setflags(write=False)
    return a_hat, a_head, b, size


@lru_cache(maxsize=8)
def _block_weights(order: float, n: int, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only weights of the strided evaluation, P = (n - 1) / step blocks:
    the P x step matrix A[d, t] = a[(d + 1) step - 1 - t] of the central
    weights, the left weights at every step-th point, and the anti-diagonal
    index d + c of each entry of a P x P matrix. A is built by row blocks of
    about _BLOCK_WEIGHT_FLOATS weights; the weight formula is elementwise, so
    the blocks hold the values of the whole weight vector."""
    gamma = order + 1.0
    p = (n - 1) // step
    blocks = np.empty((p, step))
    rows = max(1, _BLOCK_WEIGHT_FLOATS // step)
    for d0 in range(0, p, rows):
        index = np.arange(d0 * step, min(d0 + rows, p) * step)
        weights = _central_weights(gamma, index)
        blocks[d0 : d0 + rows] = weights.reshape(-1, step)[:, ::-1]
    b = _left_weights(gamma, np.arange(step, n, step))
    diagonal = np.add.outer(np.arange(p), np.arange(p)).ravel()
    for arr in (blocks, b, diagonal):
        arr.setflags(write=False)
    return blocks, b, diagonal


def _phase_split_conv(gamma: float, data: np.ndarray, step: int) -> np.ndarray:
    """Every step-th output of the product-integration convolution of the
    central weights a with data = v[1:], P = data.size / step outputs.

    Output k sums a[k step - 1 - i] data[i] over i < k step. With i = c step + t
    (a polyphase split) that is sum over t of (A[:, t] * V[:, t])[k - 1], with
    A[d, t] = a[(d + 1) step - 1 - t] and V[c, t] = data[c step + t]: step
    convolutions of length P, which add in the frequency domain, so one inverse
    real FFT of length >= 2P - 1 gives all P outputs. The weight and data FFTs
    are built for groups of phases whose spectra hold about _PHASE_FLOATS
    floats; nothing is cached. The outputs inside _DIRECT_POINTS are summed
    directly, as on the full grid.
    """
    p = data.size // step
    size = _fft_length(2 * p - 1)
    phases = data.reshape(p, step).T
    ends = np.arange(1, p + 1) * step - 1
    group = max(1, _PHASE_FLOATS // size)
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    for t0 in range(0, step, group):
        index = ends - np.arange(t0, min(t0 + group, step))[:, None]
        weights = _central_weights(gamma, index.ravel()).reshape(index.shape)
        product = np.fft.rfft(weights, size)
        product *= np.fft.rfft(phases[t0 : t0 + group], size)
        spectrum += product.sum(axis=0)
    conv = np.fft.irfft(spectrum, size)[:p]
    head = min(_DIRECT_POINTS, data.size) // step * step
    if head:
        a = _central_weights(gamma, np.arange(head))
        conv[: head // step] = np.convolve(a, data[:head])[step - 1 : head : step]
    return conv


def _check_alpha(alpha: float) -> float:
    """Refuse an estimator order alpha outside [0, 1/2), where the limit
    covariance Theta_alpha is finite; the one check of alpha for every caller."""
    if not (0.0 <= alpha < 0.5):
        raise DomainError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    return alpha


def frac_integral(g: GridFunction, order: float, step: int = 1) -> GridFunction:
    """Riemann-Liouville fractional integral of the piecewise-linear interpolant.

    Returns the integral at every `step`-th grid point, a grid of
    (N - 1) / step + 1 points (`step` must divide N - 1); the value at x = 0
    is 0. With step = 1 the convolution is one full-grid real FFT against
    cached weights. With step > 1, P = (N - 1) / step output points and
    P^2 <= N - 1, the strided values are one blocked matrix product of
    P x step cached weights with the data; otherwise they are the phase-split
    FFT of _phase_split_conv, whose transforms have length about 2P, not 2N.
    """
    if not (0.0 < order <= 1.0) or not math.isfinite(order):
        raise DomainError(f"frac_integral order must be in (0, 1], got {order!r}")
    n, step = g.num_points, _check_whole(step, "step", 1)
    if (n - 1) % step:
        raise DomainError(f"frac_integral step must divide {n - 1}, got {step}")
    h = g.spacing
    v = g.values
    p = (n - 1) // step
    if order == 1.0:
        # plain cumulative trapezoid; identical to the product-integration
        # weights at order 1 but free of convolution round-off
        out = np.concatenate(([0.0], np.cumsum(0.5 * h * (v[1:] + v[:-1]))))
        return GridFunction(out[::step])
    scale = h**order / math.gamma(order + 2.0)
    if step == 1:
        a_hat, a_head, b, size = _product_weights(order, n)
        # full linear convolution of the central weights with v[1:]. The weights
        # must stay the first operand: complex multiply is not bitwise commutative
        # here, and a_hat * rfft(...) lets numpy reuse the temporary on the right
        # as output once it passes 256 KiB, which swaps the operands
        spectrum = np.fft.rfft(v[1:], size)
        conv = np.fft.irfft(np.multiply(a_hat, spectrum, out=spectrum), size)[: n - 1]
        # the first outputs are small and summed directly (see _DIRECT_POINTS)
        k = a_head.size
        conv[:k] = np.convolve(a_head, v[1 : k + 1])[:k]
    elif p * p <= n - 1:
        # output k sums a[k step - 1 - i] v[1 + i] over i < k step; with
        # i = c step + t that is sum over d + c = k - 1 of G[d, c], G = A V^T
        blocks, b, diagonal = _block_weights(order, n, step)
        products = blocks @ v[1:].reshape(p, step).T
        conv = np.bincount(diagonal, weights=products.ravel(), minlength=2 * p - 1)[:p]
    else:
        conv = _phase_split_conv(order + 1.0, v[1:], step)
        b = _left_weights(order + 1.0, np.arange(step, n, step))
    return GridFunction(np.concatenate(([0.0], scale * (b * v[0] + conv))))


def frac_derivative(g: GridFunction, order: float) -> GridFunction:
    """Fractional derivative: grid derivative of the order-(1-order) integral.

    Interior points use centered differences, endpoints one-sided differences;
    non-finite results map to 0 by convention.
    """
    if not (0.0 < order < 1.0) or not math.isfinite(order):
        raise DomainError(f"frac_derivative order must be in (0, 1), got {order!r}")
    integral = frac_integral(g, 1.0 - order)
    deriv = np.gradient(integral.values, g.spacing)
    deriv[~np.isfinite(deriv)] = 0.0
    return GridFunction(deriv)


def _window_ranges(v: np.ndarray, widths: list[int]) -> np.ndarray:
    """Largest max - min of v over windows of each width (in points, >= 1),
    over every start that fits.

    One stacked array holds the running max of (v, -v) over windows of the
    current width c. A window of c + s points (s <= c) is the union of the
    c-point windows at i and i + s, so the widths, taken in ascending order,
    each grow from the last by np.maximum of two shifted slices (windowed
    extrema, van Herk / Gil-Werman), holding two stacked arrays at a time.
    max, negation and one addition are exact in floating point, so the result
    equals the largest |v[i] - v[j]| over pairs in a window.
    """
    out = np.empty(len(widths))
    ext = np.stack((v, -v))
    width = 1
    for idx in sorted(range(len(widths)), key=widths.__getitem__):
        while width < widths[idx]:
            shift = min(width, widths[idx] - width)
            ext = np.maximum(ext[:, :-shift], ext[:, shift:])
            width += shift
        out[idx] = np.max(ext[0] + ext[1])
    return out


def _window_steps(g: GridFunction, h) -> np.ndarray:
    """The one check of modulus windows h: each must be finite and at least the
    grid spacing. Returns the whole grid steps within each, at most N - 1."""
    h = np.asarray(h, dtype=float)
    spacing = g.spacing
    bad = h[~np.isfinite(h)]
    if bad.size:
        raise DomainError(f"modulus window h must be finite, got {bad[0].item()!r}")
    bad = h[h < spacing - 1e-12]
    if bad.size:
        raise DomainError(f"modulus window h={bad[0].item()!r} below grid spacing {spacing!r}")
    return np.minimum(np.floor(h / spacing + 1e-9).astype(int), g.num_points - 1)


def modulus_of_continuity(g: GridFunction, h: float) -> float:
    """Largest |g(lam) - g(mu)| over grid pairs with |lam - mu| <= h.

    For periodic g the pair distance is taken on the circle.
    """
    k = int(_window_steps(g, h))
    if h > TWO_PI:
        raise DomainError(f"modulus window h={h!r} exceeds 2*pi")
    v = g.values
    if g.periodic:
        # wrap the circle of m = N - 1 points so every arc of k steps is one
        # window: the m + k wrapped points hold exactly m windows of k + 1 points
        k = min(k, (v.size - 1) // 2)
        v = np.concatenate((v[:-1], v[:k]))
    return float(_window_ranges(v, [k + 1])[0])


def modulus_profile(g: GridFunction, h_grid: np.ndarray) -> np.ndarray:
    """modulus_of_continuity (non-periodic) at several windows, each grown from
    the last; windows wider than the grid take the whole grid."""
    ks = _window_steps(g, h_grid)
    return _window_ranges(g.values, (ks.ravel() + 1).tolist()).reshape(ks.shape)

