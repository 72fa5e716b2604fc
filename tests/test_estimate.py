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

    @pytest.mark.parametrize(
        "n,num_points",
        [(16384, 65537), (1000, 4097), (1024, 1025), (5000, 1025)],
        ids=["band", "padded", "n-eq-m", "folded"],
    )
    def test_matches_fold_oracle(self, n, num_points):
        # the fold of the data onto m = num_points - 1 bins, summed in index
        # order; for n <= m it is the zero padding, and the result is bitwise
        # the same, a -0.0 in the data included
        values = np.random.default_rng(n).standard_normal(n)
        values[n // 2] = -0.0
        path = gsim.SamplePath(n=n, values=values, seed=0, model_id="x")
        m = num_points - 1
        folded = np.zeros(m)
        np.add.at(folded, np.arange(n) % m, values)
        transform = np.fft.rfft(folded)
        half = (transform.real**2 + transform.imag**2) / (TWO_PI * n)
        oracle = np.concatenate((half, half[(m - 1) // 2 : 0 : -1], half[:1]))
        assert np.array_equal(estimate.periodogram(path, num_points).values, oracle)

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


def test_default_grid_points_caps():
    assert estimate.default_grid_points(256) == 4097
    assert estimate.default_grid_points(2048) == 8193
    assert estimate.default_grid_points(1 << 20) == estimate.MAX_GRID_POINTS


#: (case, name, a call that passes it) of every count and size argument of estimate
_WHOLE_ARGS = (
    ("periodogram-points", "num_points", lambda path, j, v: estimate.periodogram(path, v)),
    ("default-grid-n", "n", lambda path, j, v: estimate.default_grid_points(v)),
    ("estimate-step", "step", lambda path, j, v: estimate.frac_estimate(j, 0.25, v)),
)
_NOT_WHOLE = (64.7, math.nan, math.inf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda path, j: estimate.periodogram(path, 1), "num_points must be at least 2, got 1"),
        *[
            (lambda path, j, call=call, bad=bad: call(path, j, bad),
             f"{name} must be a whole number, got {bad!r}")
            for _, name, call in _WHOLE_ARGS for bad in _NOT_WHOLE
        ],
        # it used to fail in numpy with a TypeError
        (
            lambda path, j: estimate.periodogram(path, 257.5),
            "num_points must be a whole number, got 257.5",
        ),
        # MAX_GRID_POINTS, the bound of every verb, holds for library callers too
        (
            lambda path, j: estimate.periodogram(path, estimate.MAX_GRID_POINTS + 1),
            f"num_points must be at most {estimate.MAX_GRID_POINTS}, "
            f"got {estimate.MAX_GRID_POINTS + 1}",
        ),
    ],
    ids=["periodogram-1-point",
         *[f"{case}-{bad}" for case, _, _ in _WHOLE_ARGS for bad in _NOT_WHOLE],
         "periodogram-257.5", "periodogram-above-max"],
)
def test_refusals_name_the_bad_input(call, message):
    path = gsim.sample_path(AR1, 64, seed=0)
    j = estimate.periodogram(path, 257)
    with pytest.raises(DomainError) as exc:
        call(path, j)
    assert message in str(exc.value)
