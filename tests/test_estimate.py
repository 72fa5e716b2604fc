import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import DomainError, TWO_PI
from fracspec import estimate, gsim, specmodel
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)


class TestPeriodogram:
    @pytest.mark.parametrize(
        "num_points",
        [257, 258, 2, 17, 10],
        ids=["m-even", "m-odd", "m-1", "n-gt-m-even", "n-gt-m-odd"],
    )
    def test_matches_direct_trig_sum(self, num_points):
        # m = num_points - 1 grid intervals; the last two cases fold 24 values onto m < 24 bins
        path = gsim.sample_path(AR1, 24, seed=1)
        j = estimate.periodogram(path, num_points)
        lam = j.grid
        k = np.arange(1, 25)
        direct = (
            np.abs(np.exp(1j * np.outer(lam, k)) @ path.values) ** 2
            / (TWO_PI * 24)
        )
        np.testing.assert_allclose(j.values, direct, atol=1e-10)

    def test_nonnegative_and_periodic(self):
        j = estimate.periodogram(gsim.sample_path(CONST, 64, seed=2), 513)
        assert np.min(j.values) >= 0.0
        assert j.periodic

    def test_parseval(self):
        # integral of the periodogram over one period equals the sample energy / n
        path = gsim.sample_path(AR1, 64, seed=3)
        j = estimate.periodogram(path, 4097)
        mass = np.trapezoid(j.values, dx=j.spacing)
        energy = float(path.values @ path.values) / path.n
        assert mass == pytest.approx(energy, abs=1e-8)

    @given(
        n=st.integers(1, 300),
        num_points=st.integers(2, 2000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_mirror_symmetry(self, n, num_points, seed):
        # J(2 pi - nu) = J(nu) for real data; 2 pi - nu_k is grid point m - k, and the
        # upper half of the grid is the mirror of the lower, so the equality is exact
        values = np.random.default_rng(seed).standard_normal(n)
        path = gsim.SamplePath(n=n, values=values, seed=seed, model_id="x")
        j = estimate.periodogram(path, num_points).values
        assert np.array_equal(j, j[::-1])


class TestFracEstimate:
    def test_alpha_zero_equals_empirical_spectral_function(self):
        j = estimate.periodogram(gsim.sample_path(CONST, 64, seed=4), 4097)
        a = estimate.frac_estimate(j, 0.0)
        b = estimate.empirical_spectral_function(j)
        np.testing.assert_allclose(a.values, b.values, atol=1e-12)

    def test_rejects_alpha_out_of_range(self):
        j = estimate.periodogram(gsim.sample_path(CONST, 16, seed=0), 65)
        for alpha in (-0.1, 0.5, 0.7):
            with pytest.raises(DomainError):
                estimate.frac_estimate(j, alpha)

    def test_mean_matches_smoothed_truth(self):
        # E F_hat = I^(1-alpha) applied to the Fejer-smoothed density, exactly
        n, reps, alpha = 128, 600, 0.25
        pts = 1025
        acc = np.zeros(pts)
        for r in range(reps):
            j = estimate.periodogram(gsim.sample_path(AR1, n, seed=10, stream=r), pts)
            acc += estimate.frac_estimate(j, alpha).values
        acc /= reps
        from fracspec import fracops

        expected = fracops.frac_integral(
            specmodel.expected_periodogram(AR1, n, pts), 1 - alpha
        )
        assert np.max(np.abs(acc - expected.values)) < 0.02

    def test_vanishes_at_origin(self):
        j = estimate.periodogram(gsim.sample_path(AR1, 32, seed=5), 257)
        est = estimate.frac_estimate(j, 0.3)
        assert est.values[0] == 0.0


class TestPluginVariance:
    N = 1024

    @classmethod
    def _mean_plugin(cls, alpha: float, lam: float) -> float:
        reps = 200
        acc = 0.0
        for r in range(reps):
            j = estimate.periodogram(gsim.sample_path(CONST, cls.N, seed=20, stream=r))
            acc += estimate.plugin_variance(j, cls.N, alpha, lam)
        return acc / reps

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.45])
    def test_recovers_limit_variance_in_expectation(self, alpha):
        # averaged over replications the plug-in tracks the stated limit variance;
        # plug-in / limit is 0.992, 0.988, 1.010 and 1.052 (half of J^2 gave
        # 0.991, 1.001, 1.144 and 1.333)
        target = specmodel.theta_point(CONST, alpha, math.pi, math.pi)
        assert self._mean_plugin(alpha, math.pi) == pytest.approx(target, rel=0.15)

    @pytest.mark.parametrize("side", [-1, 1], ids=["below-pi", "above-pi"])
    def test_recovers_limit_variance_next_to_pi(self, side):
        # one Fourier half-step from pi, a pair looking toward pi straddles it just
        # below lam and reads 1.244 times the limit at alpha = 0.4; looking away
        # from pi it reads 0.962 below and 1.022 above
        lam = math.pi + side * math.pi / self.N
        target = specmodel.theta_point(CONST, 0.4, lam, lam)
        assert self._mean_plugin(0.4, lam) == pytest.approx(target, rel=0.15)

    def test_positive(self):
        j = estimate.periodogram(gsim.sample_path(AR1, 128, seed=6))
        assert estimate.plugin_variance(j, 128, 0.1, 2.0) > 0.0

    @pytest.mark.parametrize(
        "num_points, lam, shift",
        [(4097, math.pi, 4), (4097, 1.0, -4), (4097, TWO_PI, 4), (4001, math.pi, None)],
    )
    def test_squares_by_ordinates_one_fourier_frequency_apart(
        self, monkeypatch, num_points, lam, shift
    ):
        # on a grid with (N - 1) / n = 4 the pair is J(nu) J(nu -+ 4 steps), looking
        # back at lam = pi and 2 pi and ahead at lam = 1; at (N - 1) / n = 3.906
        # the earlier ordinate is interpolated
        n, alpha = 1024, 0.25
        j = estimate.periodogram(gsim.sample_path(CONST, n, seed=4), num_points)
        seen = []
        real = estimate.fracops.frac_integral
        monkeypatch.setattr(
            estimate.fracops, "frac_integral", lambda g, order: seen.append(g) or real(g, order)
        )
        estimate.plugin_variance(j, n, alpha, lam)
        if shift:
            expected = j.values[:-1] * np.roll(j.values[:-1], shift)
            assert np.array_equal(seen[0].values[:-1], expected)
        else:
            behind = np.interp((j.grid[:-1] - TWO_PI / n) % TWO_PI, j.grid, j.values)
            expected = j.values[:-1] * behind
            # the two interpolation points differ by rounding only
            atol = 1e-12 * np.max(expected)
            np.testing.assert_allclose(seen[0].values[:-1], expected, rtol=0, atol=atol)


def test_default_grid_points_caps():
    assert estimate.default_grid_points(256) == 4097
    assert estimate.default_grid_points(2048) == 8193
    assert estimate.default_grid_points(1 << 20) == estimate.MAX_GRID_POINTS
