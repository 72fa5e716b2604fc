import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracspec import DomainError, GridFunction, TWO_PI
from fracspec import specmodel
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)


def _custom_model() -> SpectralModel:
    lam = np.linspace(0, TWO_PI, 2049)
    vals = (2.0 + np.cos(lam)) / (4.0 * math.pi**2)  # even, positive, periodic
    return SpectralModel.custom(GridFunction(vals, periodic=True))


class TestModelValidation:
    def test_constant_requires_positive_level(self):
        with pytest.raises(DomainError):
            SpectralModel.constant(0.0)

    def test_ar1_requires_contractive_rho(self):
        with pytest.raises(DomainError):
            SpectralModel.ar1(1.0)
        with pytest.raises(DomainError):
            SpectralModel.ar1(-1.5)

    def test_custom_requires_even_density(self):
        lam = np.linspace(0, TWO_PI, 257)
        odd = 1.0 + 0.5 * np.sin(lam)
        odd[-1] = odd[0]
        with pytest.raises(DomainError):
            SpectralModel.custom(GridFunction(odd, periodic=True))

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            SpectralModel.from_mapping({"kind": "constant", "c": "1", "weird": "1"})


class TestAutocovariance:
    def test_constant_is_white_noise(self):
        assert specmodel.autocovariance_batch(CONST, 0)[0] == pytest.approx(1.0)
        assert specmodel.autocovariance_batch(CONST, 3)[3] == pytest.approx(0.0, abs=1e-14)

    def test_ar1_geometric_decay(self):
        r = specmodel.autocovariance_batch(AR1, 5)
        np.testing.assert_allclose(r, 0.5 ** np.arange(6), rtol=1e-10)

    def test_matches_quadrature_oracle(self):
        model = _custom_model()
        for m in (0, 1, 4):
            oracle, _ = quad(
                lambda x: math.cos(m * x) * float(model.density(x)), 0, TWO_PI, limit=200
            )
            assert specmodel.autocovariance_batch(model, m)[m] == pytest.approx(oracle, abs=1e-8)


class TestSpectralFunction:
    # pi/2 and pi are grid points of a 4097-point grid, so no interpolation
    # error enters the comparisons below

    def test_total_mass_is_r0(self):
        for model in (CONST, AR1, _custom_model()):
            total = specmodel.spectral_profile(model, 4097).values[-1]
            assert total == pytest.approx(specmodel.autocovariance_batch(model, 0)[0], rel=1e-8)

    def test_frac_derivative_constant_closed_form(self):
        val = specmodel.frac_truth_profile(CONST, 0.25, 4097).interp(math.pi)
        exact = (1.0 / TWO_PI) * math.pi**0.75 / math.gamma(1.75)
        assert val == pytest.approx(exact, rel=1e-12)
        assert val == pytest.approx(0.40864, abs=5e-5)

    def test_alpha_zero_reduces_to_spectral_function(self):
        spectral = specmodel.spectral_profile(AR1, 4097)
        frac = specmodel.frac_truth_profile(AR1, 0.0, 4097)
        np.testing.assert_allclose(frac.values, spectral.values, rtol=1e-12)
        for lam in (math.pi / 2, math.pi):
            oracle, _ = quad(AR1.density, 0.0, lam, epsabs=1e-13, epsrel=1e-13)
            assert spectral.interp(lam) == pytest.approx(oracle, rel=1e-9)


class TestFejer:
    def test_kernel_mass_is_one(self):
        lam = np.linspace(0, TWO_PI, 20001)
        k = specmodel.fejer_kernel(64, lam)
        mass = np.trapezoid(k, lam)
        assert mass == pytest.approx(1.0, rel=1e-6)

    def test_kernel_peak_value(self):
        assert specmodel.fejer_kernel(32, 0.0) == pytest.approx(32 / TWO_PI)

    def test_expected_periodogram_constant_is_exact(self):
        ej = specmodel.expected_periodogram(CONST, 128, 1025)
        np.testing.assert_allclose(ej.values, CONST.c, atol=1e-14)

    def test_expected_periodogram_matches_convolution_oracle(self):
        n = 32
        ej = specmodel.expected_periodogram(AR1, n, 2049)
        oracle, _ = quad(
            lambda nu: specmodel.fejer_kernel(n, -nu) * float(AR1.density(nu)),
            -math.pi,
            math.pi,
            limit=400,
        )
        assert ej.interp(0.0) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize(
        "model", [CONST, SpectralModel.ar1(0.95)], ids=["constant", "ar1_0.95"]
    )
    @pytest.mark.parametrize("n, out_grid", [(300, 17), (300, 65), (2001, 2001)])
    def test_expected_periodogram_longer_than_grid(self, model, n, out_grid):
        # n > out_grid - 1: the Cesaro coefficients wrap around the circle;
        # rho = 0.95 keeps the wrapped lags large enough to matter
        lam = np.linspace(0.0, TWO_PI, out_grid)
        k = np.arange(1, n)
        coeff = specmodel.autocovariance_batch(model, n - 1) * (1.0 - np.arange(n) / n)
        direct = (coeff[0] + 2.0 * np.cos(np.outer(lam, k)) @ coeff[1:]) / TWO_PI
        ej = specmodel.expected_periodogram(model, n, out_grid)
        np.testing.assert_allclose(ej.values, direct, rtol=1e-12, atol=1e-14)

    def test_smoothing_bias_shrinks(self):
        errs = []
        dens = AR1.density_grid(2049)
        for n in (64, 256, 1024):
            ej = specmodel.expected_periodogram(AR1, n, 2049)
            errs.append(np.max(np.abs(ej.values - dens.values)))
        assert errs[0] > errs[1] > errs[2]


class TestBetaDistance:
    def test_beta_sq_constant(self):
        assert specmodel.beta_sq(CONST, math.pi) == pytest.approx(
            4 * math.pi * CONST.c**2 * math.pi, rel=1e-12
        )


class TestLimitCovariance:
    def test_diagonal_gamma_closed_form(self):
        # constant density 1/(2 pi), alpha = 1/4, lam = pi:
        # Theta = 1 / (Gamma^2(3/4) Gamma(3/2))
        val = specmodel.theta_diagonal(CONST, 0.25, math.pi)
        exact = 1.0 / (math.gamma(0.75) ** 2 * math.gamma(1.5))
        assert val == pytest.approx(exact, rel=1e-10)

    def test_diagonal_alpha_zero_is_beta_sq(self):
        for model in (CONST, AR1):
            assert specmodel.theta_diagonal(model, 0.0, math.pi) == pytest.approx(
                specmodel.beta_sq(model, math.pi), rel=1e-10
            )

    def test_off_diagonal_matches_brute_quadrature(self):
        alpha, lam, mu = 0.3, 2.0, 3.0
        val = specmodel.theta_point(AR1, alpha, lam, mu)

        def integrand(nu):
            return float(AR1.density(nu)) ** 2 * (lam - nu) ** -alpha * (mu - nu) ** -alpha

        oracle, _ = quad(integrand, 0.0, lam, points=[lam - 1e-9], limit=400)
        oracle *= 4 * math.pi / math.gamma(1 - alpha) ** 2
        assert val == pytest.approx(oracle, rel=1e-6)

    def test_symmetric_convention_halves_interior_points(self):
        # away from the right endpoint the mirror term vanishes
        plain = specmodel.theta_point(CONST, 0.25, 1.0, 2.0)
        sym = specmodel.theta_point(CONST, 0.25, 1.0, 2.0, real_symmetry=True)
        assert sym == pytest.approx(plain / 2, rel=1e-10)

    def test_symmetric_convention_full_mass_at_endpoint(self):
        # at lam = mu = 2 pi with alpha = 0 both conventions give beta^2(2 pi)
        plain = specmodel.theta_diagonal(CONST, 0.0, TWO_PI)
        sym = specmodel.theta_diagonal(CONST, 0.0, TWO_PI, real_symmetry=True)
        assert sym == pytest.approx(plain, rel=1e-10)

    def test_matrix_is_psd_and_factor_reproduces(self):
        probes = np.array([1.0, 2.0, math.pi, 5.0, TWO_PI])
        cov = specmodel.limit_covariance(AR1, 0.25, probes)
        eig = np.linalg.eigvalsh(cov.matrix)
        assert eig.min() >= -1e-12
        np.testing.assert_allclose(cov.factor @ cov.factor.T, cov.matrix, atol=1e-10)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            specmodel.theta_diagonal(CONST, 0.5, math.pi)
