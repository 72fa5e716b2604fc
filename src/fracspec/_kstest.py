"""One-sample two-sided Kolmogorov-Smirnov test against N(0, 1), in numpy.

The statistic is D = max(D+, D-) of the sorted values, as `scipy.stats.ks_1samp`
forms it. The normal CDF takes erf for |x| < 1 and erfc beyond, as cephes
`ndtr` does.

The p-value P(D_n >= d) follows the decision tree of R. Simard & P. L'Ecuyer,
"Computing the two-sided Kolmogorov-Smirnov distribution", J. Stat. Softw.
39(11) (2011), ported branch for branch, with the same cut-offs and clipping,
from `_kolmogn(n, x, cdf=False)` in `scipy/stats/_ksstats.py` (SciPy 1.17):

- Ruben-Gambino at both ends, n d <= 1 and n d >= n - 1;
- twice the one-sided Smirnov tail for d >= 0.5;
- for n <= 140: the Durbin matrix as G. Marsaglia, W. W. Tsang & J. Wang,
  J. Stat. Softw. 8(18) (2003) compute it, then the Pomeranz recursion
  (J. Pomeranz, CACM 17 (1974)), then twice the Smirnov tail;
- for n > 140: 0 at n d^2 >= 370, twice the Smirnov tail at n d^2 >= 2.2,
  otherwise 1 - CDF by the Durbin matrix or the Pelz-Good series (W. Pelz &
  I. J. Good, JRSS B 38 (1976)).

SciPy evaluates the one-sided Smirnov tail in compiled code. Here it is the
Birnbaum-Tingey sum (Z. W. Birnbaum & F. H. Tingey, Ann. Math. Stat. 22
(1951)) in log space. Each of its terms is a binomial probability divided by
its success probability, and its logarithm is split as C. Loader's binomial
algorithm splits it (Stirling remainders plus a deviance term), so no large
logarithms cancel: it agrees with `scipy.special.smirnov` to 5e-15
relative where the tail exceeds 1e-10. Like SciPy, it falls back to the
asymptotic exp(-(6 n d + 1)^2 / (18 n)) above n = 10^6.

The ported parts are derived from SciPy, under this licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

# intermediate rescaling of the Durbin and Pomeranz recursions; as in SciPy the
# factors are long doubles, so a rescaled probability carries on in long double
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# the Birnbaum-Tingey sum has up to n terms; SciPy switches to the asymptotic above this
_SMIRNOV_MAX_N = 1_000_000

_SQRT1_2 = math.sqrt(0.5)

# Stirling remainder ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi) at k = 0..15, where its
# series converges too slowly; the k = 0 entry is never read through a j or n - j >= 1
_STIRLERR_SMALL = np.array(
    [0.0] + [math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - 0.5 * math.log(2 * math.pi)
             for k in range(1, 16)]
)


def kstest_norm(values: np.ndarray) -> tuple[float, float]:
    """(D, p) of the two-sided one-sample KS test of `values` against N(0, 1)."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    cdf = np.array([_ndtr(v) for v in x.tolist()])
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, _kstwo_sf(n, d)


def _ndtr(a: float) -> float:
    """Standard normal CDF, from erf near 0 and erfc in the tails."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0 else y


def _clip(p):
    return min(max(p, 0.0), 1.0)


def _kstwo_sf(n: int, d: float) -> float:
    """P(D_n >= d): the support of D_n is [1/(2n), 1]."""
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    # SciPy evaluates the branches on a 0-d array; the same types give the same bits
    return float(_kolmogn_sf(n, np.asarray(d, dtype=np.float64)))


def _kolmogn_sf(n: int, x: np.ndarray):
    """P(D_n >= x) for 1/(2n) < x < 1: SciPy's `_kolmogn(n, x, cdf=False)`."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        # n!/n^n (2t - 1)^n; SciPy takes logs above n = 140, where it is below
        # 2e-60, half an ulp of 1 many times over, so 1 - prob is 1 either way
        prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: twice the one-sided tail
        return _clip(2 * _smirnov(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _clip(_dmtw_cdf(n, x)))
        if nxsquared <= 4:
            return _clip(1.0 - _clip(_pomeranz_cdf(n, x)))
        return _clip(2 * _smirnov(n, x))

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * _smirnov(n, x))
    # below n x^2 = 2.2 the CDF cut-off at n x^2 >= 18 cannot apply
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _clip(_dmtw_cdf(n, x))
    else:
        cdfprob = _pelz_good_cdf(n, x)
    return _clip(1.0 - cdfprob)


def _dmtw_cdf(n: int, d):
    """P(D_n <= d) by the Durbin matrix, for 1/n < d < 1/2: with d = (k - h)/n,
    the k-th diagonal entry of (n!/n^n) H^n for an m x m matrix H, m = 2k - 1,
    rescaled by 2^128 as it grows."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and reversed, the last row) of H, w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pomeranz_compute_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple[int, int]:
    """End points of the non-zero entries of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n: int, x):
    """P(D_n <= x) by the Pomeranz recursion: n! times the last entry of 2n + 1
    rows, each the convolution of the previous row with Poisson-like weights;
    two rows are kept, each with its few non-zero entries."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)  # most powers any convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:  # rescale against underflow
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _pelz_good_cdf(n: int, x):
    """P(D_n <= x) by Pelz-Good: the Li-Chien/Korolyuk expansion
    K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in z = x sqrt(n), each K transformed by
    the Jacobi theta functional equation to suit small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2) over odd i
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([
            1.0,
            k1a + k1b * msquared,
            k2a + k2b * msquared + k2c * mfour,
            k3a + k3b * msquared + k3c * mfour + k3d * msix,
        ])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k: K2 gets (pi^2 k^2) q^(k^2), K3 gets
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2); little cancellation, so summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)


def _smirnov(n: int, x) -> float:
    """P(D_n+ >= x), the one-sided Smirnov tail, for 1/n < x < 1 - 1/n.

    Birnbaum-Tingey: x sum_{j=0}^{n(1-x)} C(n, j) a_j^(n-j) b_j^(j-1), with
    a_j = 1 - x - j/n and b_j = x + j/n = 1 - a_j. Term j is the binomial
    probability of j successes at success probability b_j, over b_j.
    """
    x = float(x)
    nx = n * x
    if n > _SMIRNOV_MAX_N:
        logp = -((6.0 * n * x + 1) ** 2) / 18.0 / n
        # SciPy's asymptotic, at full precision for small p
        return math.exp(logp) if logp < -math.log(2) else 1.0 + math.expm1(logp)
    j = np.arange(1.0, math.floor(n * (1.0 - x)) + 1)
    m = n - j
    keep = m > nx  # a_j > 0: a term with a_j = 0 is 0
    j, m = j[keep], m[keep]
    # ln(binomial probability) = Stirling remainders + ln sqrt(n / (2 pi j m))
    # - the deviances of j and m from their means n b_j and n a_j
    logs = (
        j * np.log1p(nx / j) + m * np.log1p(-nx / m)
        + 0.5 * np.log(n / (2.0 * math.pi * j * m))
        + _stirlerr(n) - _stirlerr(j) - _stirlerr(m)
        - np.log(x + j / n)
    )
    logs = np.concatenate(([n * math.log1p(-x) - math.log(x)], logs))  # j = 0: a_0^n / x
    top = float(np.max(logs))
    return x * math.exp(top) * float(np.sum(np.exp(logs - top)))


def _stirlerr(k) -> np.ndarray:
    """ln k! - (k + 1/2) ln k + k - ln sqrt(2 pi), for integers k >= 1."""
    k = np.asarray(k, dtype=np.float64)
    big = np.maximum(k, 16.0)
    r = 1.0 / (big * big)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / big
    return np.where(k > 15, series, _STIRLERR_SMALL[np.minimum(k, 15).astype(np.intp)])
