"""The numpy Kolmogorov-Smirnov test against scipy.stats.kstest(x, "norm").

Each sample is forced onto one branch of the p-value's decision tree: its
values are the N(0, 1) quantiles of an evenly spaced grid squeezed toward 0,
so its statistic is close to a chosen d.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from fracspec import _kstest

# Tightest tolerances the port reaches here, measured on these samples, with
# about a factor 2 of room for another libm's erf:
# - the statistic differs from scipy's by at most one rounding of the normal
#   CDF, 1.1e-16;
# - the p-value at scipy's own statistic is bit-identical on every ported
#   branch, and the Smirnov tail, summed in log space, is within 4.9e-14
#   relative (4.2e-15 where the tail exceeds 1e-10);
# - the p-value of the whole test also carries the statistic's rounding,
#   amplified by d ln p / d D ~ 4 n D: 4.6e-13 relative at n = 10,000, D = 0.1.
D_ATOL = 2.5e-16
SF_RTOL = 1e-13
BULK_SF_RTOL = 1e-14
P_RTOL = 1e-12

HELPERS = ("_dmtw_cdf", "_pomeranz_cdf", "_pelz_good_cdf", "_smirnov")

# branches reached without a helper, by the region of (n, D) that selects them
REGIONS = {
    "support": lambda n, d: d <= 0.5 / n,
    "ruben-gambino-low": lambda n, d: 0.5 < n * d <= 1,
    "ruben-gambino-high": lambda n, d: n * d >= n - 1,
    "zero": lambda n, d: n > 140 and d < 0.5 and n * d * d >= 370,
}

# (n, target statistic, branch)
CASES = [
    (1, 0.5, "support"),
    (1, 0.7, "ruben-gambino-low"),
    (1, 0.95, "ruben-gambino-low"),
    (2, 0.4, "ruben-gambino-low"),
    (2, 0.7, "ruben-gambino-high"),
    (2, 0.97, "ruben-gambino-high"),
    (10, 0.08, "ruben-gambino-low"),
    (10, 0.2, "_dmtw_cdf"),
    (10, 0.4, "_pomeranz_cdf"),
    (10, 0.6, "_smirnov"),
    (10, 0.95, "ruben-gambino-high"),
    (140, 0.006, "ruben-gambino-low"),
    (140, 0.05, "_dmtw_cdf"),
    (140, 0.12, "_pomeranz_cdf"),
    (140, 0.3, "_smirnov"),
    (140, 0.6, "_smirnov"),
    (140, 0.995, "ruben-gambino-high"),
    (141, 0.005, "ruben-gambino-low"),
    (141, 0.03, "_dmtw_cdf"),
    (141, 0.08, "_pelz_good_cdf"),
    (141, 0.2, "_smirnov"),
    (141, 0.6, "_smirnov"),
    (141, 0.995, "ruben-gambino-high"),
    (400, 0.002, "ruben-gambino-low"),
    (400, 0.015, "_dmtw_cdf"),
    (400, 0.04, "_pelz_good_cdf"),
    (400, 0.1, "_smirnov"),
    (400, 0.3, "_smirnov"),
    (400, 0.7, "_smirnov"),
    (400, 0.866, "_smirnov"),  # n x^2 = 300: the tail underflows to exactly 0
    (400, 0.999, "ruben-gambino-high"),
    (2000, 0.0004, "ruben-gambino-low"),
    (2000, 0.005, "_dmtw_cdf"),
    (2000, 0.02, "_pelz_good_cdf"),
    (2000, 0.06, "_smirnov"),
    (2000, 0.3, "_smirnov"),
    (2000, 0.44, "zero"),
    (2000, 0.7, "_smirnov"),
    (10000, 0.00008, "ruben-gambino-low"),
    (10000, 0.002, "_dmtw_cdf"),
    (10000, 0.008, "_pelz_good_cdf"),
    (10000, 0.03, "_smirnov"),
    (10000, 0.1, "_smirnov"),
    (10000, 0.3, "zero"),
    (10000, 0.6, "_smirnov"),
]


def _sample(n: int, d: float) -> np.ndarray:
    """Values whose empirical CDF lies about d above N(0, 1) at the top."""
    squeeze = (d - 0.5 / n) / (1 - 0.5 / n)
    return special.ndtri((np.arange(1, n + 1) - 0.5) / n * (1 - squeeze))


@pytest.fixture
def helper_calls(monkeypatch):
    calls = []
    for name in HELPERS:
        real = getattr(_kstest, name)
        monkeypatch.setattr(
            _kstest, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    return calls


@pytest.mark.parametrize(
    "n, d, branch", CASES, ids=[f"n{n}-d{d}-{branch.strip('_')}" for n, d, branch in CASES]
)
def test_matches_scipy_kstest(helper_calls, n, d, branch):
    x = _sample(n, d)
    ref = stats.kstest(x, "norm")
    stat, p = _kstest.kstest_norm(x)
    if branch in REGIONS:
        assert helper_calls == []
        assert REGIONS[branch](n, stat)
    else:
        assert helper_calls == [branch]
    assert stat == pytest.approx(ref.statistic, rel=0, abs=D_ATOL)
    assert p == pytest.approx(ref.pvalue, rel=P_RTOL, abs=0)
    sf = _kstest._kstwo_sf(n, float(ref.statistic))
    assert sf == pytest.approx(stats.kstwo.sf(ref.statistic, n), rel=SF_RTOL, abs=0)
    if branch not in ("_smirnov", "zero"):
        assert sf == stats.kstwo.sf(ref.statistic, n)


def test_every_branch_is_covered():
    assert {branch for _, _, branch in CASES} == set(HELPERS) | set(REGIONS)


@pytest.mark.parametrize("n", [141, 400, 2000, 10000])
@pytest.mark.parametrize("nx2", [2.2, 3.7, 10.0, 50.0, 120.0])
def test_smirnov_tail_matches_scipy(n, nx2):
    # the one port that is not a transcription: the Birnbaum-Tingey sum in log space
    x = math.sqrt(nx2 / n)
    ref = special.smirnov(n, x)
    rtol = SF_RTOL if ref < 1e-10 else BULK_SF_RTOL
    assert _kstest._smirnov(n, x) == pytest.approx(ref, rel=rtol, abs=0)


@pytest.mark.parametrize("n", [1_000_001, 2_000_000])
def test_smirnov_tail_takes_scipys_asymptotic_above_a_million(n):
    x = math.sqrt(2.2 / n)
    assert _kstest._smirnov(n, x) == special.smirnov(n, x)


def test_random_normal_samples_match_scipy():
    rng = np.random.default_rng(12)
    for n in (3, 30, 400, 2000):
        for _ in range(5):
            x = rng.standard_normal(n) * rng.uniform(0.7, 1.3)
            ref = stats.kstest(x, "norm")
            stat, p = _kstest.kstest_norm(x)
            assert stat == pytest.approx(ref.statistic, rel=0, abs=D_ATOL)
            assert p == pytest.approx(ref.pvalue, rel=P_RTOL, abs=0)
