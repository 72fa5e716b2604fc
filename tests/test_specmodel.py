import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracspec import DomainError, GridFunction, NumericalError, TWO_PI
from fracspec import cli, specmodel, verify
from fracspec.grid import MAX_GRID_POINTS
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)


def _custom_model() -> SpectralModel:
    lam = np.linspace(0, TWO_PI, 2049)
    vals = (2.0 + np.cos(lam)) / (4.0 * math.pi**2)  # even, positive, periodic
    return SpectralModel.custom(GridFunction(vals, periodic=True))


def _tabulated_ar1(rho: float, points: int) -> SpectralModel:
    """The AR(1) density on a uniform grid, mirrored so that f(lam) = f(2 pi - lam)."""
    lam = np.linspace(0.0, TWO_PI, points)[: (points - 1) // 2 + 1]
    half = (1.0 - rho**2) / (1.0 - 2.0 * rho * np.cos(lam) + rho**2) / TWO_PI
    return SpectralModel.custom(GridFunction(np.concatenate((half, half[-2::-1])), periodic=True))


CUSTOM_AR1 = _tabulated_ar1(0.5, 4097)


def _autocov_loop(model: SpectralModel, mmax: int) -> np.ndarray:
    """Oracle: the exact cosine integral of the piecewise-linear density, cell
    by cell and lag by lag."""
    lam, v = model.grid_fn.grid, model.grid_fn.values
    a0, a1, f0, f1 = lam[:-1], lam[1:], v[:-1], v[1:]
    slope = (f1 - f0) / (a1 - a0)
    out = np.empty(mmax + 1)
    out[0] = float(np.trapezoid(v, lam))
    for m in range(1, mmax + 1):
        s1, s0 = np.sin(m * a1), np.sin(m * a0)
        c1, c0 = np.cos(m * a1), np.cos(m * a0)
        out[m] = float(np.sum((f1 * s1 - f0 * s0) / m + slope * (c1 - c0) / m**2))
    return out


def _quad_theta(model, alpha, lam, mu, real_symmetry=False, points=()):
    """Oracle: quad of each covariance kernel, split at `points`. The pieces at
    a singular end take that singularity as quad's algebraic weight (QAWS);
    the other pieces evaluate it."""
    lam, mu = max(lam, mu), min(lam, mu)

    def kernel(lo, hi, a_lo, a_hi, smooth):
        cuts = [lo] + [p for p in points if lo < p < hi] + [hi]
        total = 0.0
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            wa = a_lo if s0 == lo else 0.0
            wb = a_hi if s1 == hi else 0.0

            def integrand(nu, wa=wa, wb=wb):
                out = float(model.density(nu)) ** 2 * smooth(nu)
                if a_lo and not wa:
                    out *= (nu - lo) ** a_lo
                if a_hi and not wb:
                    out *= (hi - nu) ** a_hi
                return out

            kw = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
            if wa or wb:
                kw.update(weight="alg", wvar=(wa, wb))
            total += quad(integrand, s0, s1, **kw)[0]
        return total

    if lam == mu:
        direct = kernel(0.0, mu, 0.0, -2.0 * alpha, lambda nu: 1.0)
    else:
        direct = kernel(0.0, mu, 0.0, -alpha, lambda nu: (lam - nu) ** -alpha)
    scale = 4.0 * math.pi / math.gamma(1.0 - alpha) ** 2
    if not real_symmetry:
        return scale * direct
    lo, hi = TWO_PI - mu, lam
    mirror = kernel(lo, hi, -alpha, -alpha, lambda nu: 1.0) if hi > lo + 1e-15 else 0.0
    return 0.5 * scale * (direct + mirror)


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

    @pytest.mark.parametrize("points", [1025, 4097])
    @pytest.mark.parametrize("rho", [0.5, 0.95])
    def test_fft_matches_cell_by_cell_loop(self, rho, points):
        # lags up to 2048 wrap past the 1024 cells of the smaller grid
        model = _tabulated_ar1(rho, points)
        np.testing.assert_allclose(
            specmodel.autocovariance_batch(model, 2048), _autocov_loop(model, 2048),
            rtol=0, atol=1e-13,
        )


class TestSpectralFunction:
    # pi/2 and pi are grid points of a 4097-point grid, so no interpolation
    # error enters the comparisons below

    def test_total_mass_is_r0(self):
        for model in (CONST, AR1, _custom_model()):
            total = specmodel.spectral_profile(model, 4097).values[-1]
            assert total == pytest.approx(specmodel.autocovariance_batch(model, 0)[0], rel=1e-8)

    def test_frac_derivative_constant_closed_form(self):
        truth = specmodel.frac_truth_profile(CONST, 0.25, 4097)
        val = np.interp(math.pi, truth.grid, truth.values)
        exact = (1.0 / TWO_PI) * math.pi**0.75 / math.gamma(1.75)
        assert val == pytest.approx(exact, rel=1e-12)
        assert val == pytest.approx(0.40864, abs=5e-5)

    def test_alpha_zero_reduces_to_spectral_function(self):
        for model in (CONST, AR1, _custom_model()):
            spectral = specmodel.spectral_profile(model, 4097)
            frac = specmodel.frac_truth_profile(model, 0.0, 4097)
            assert np.array_equal(frac.values, spectral.values), model.kind
        spectral = specmodel.spectral_profile(AR1, 4097)
        for lam in (math.pi / 2, math.pi):
            oracle, _ = quad(AR1.density, 0.0, lam, epsabs=1e-13, epsrel=1e-13)
            assert np.interp(lam, spectral.grid, spectral.values) == pytest.approx(
                oracle, rel=1e-9
            )

    @pytest.mark.parametrize(
        "num_points, step",
        [(65537, 1024), (4097, 64), (4097, 16), (65537, 128), (3001, 3), (4097, 1)],
    )
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.49])
    def test_strided_profile_is_every_step_th_point(self, num_points, step, alpha):
        # the strided evaluation on the truth grid sums in another order than
        # the full grid's FFT: at most a few ulps of the largest value apart
        for model in (CONST, AR1, SpectralModel.ar1(-0.9), _custom_model()):
            full = specmodel.frac_truth_profile(model, alpha, num_points).values[::step]
            got = specmodel.frac_truth_profile(model, alpha, num_points, step).values
            np.testing.assert_allclose(got, full, rtol=0, atol=1e-14 * np.max(full))
            if model is CONST or alpha == 0.0:
                assert np.array_equal(got, full), model.kind

    def test_strided_profile_computes_only_the_strided_points(self, monkeypatch):
        steps = []
        frac_integral = specmodel.fracops.frac_integral

        def spy(g, order, step=1):
            steps.append((g.num_points, step))
            return frac_integral(g, order, step)

        monkeypatch.setattr(specmodel.fracops, "frac_integral", spy)
        specmodel.frac_truth_profile(AR1, 0.25, 4097, 64)
        specmodel.frac_truth_profile(AR1, 0.25, 3001, 3)
        assert steps == [(specmodel.TRUTH_POINTS, 1024), (66001, 66)]

    def test_profile_on_the_truth_grid_is_strided_at_step_one(self, monkeypatch):
        steps = []
        frac_integral = specmodel.fracops.frac_integral

        def spy(g, order, step=1):
            steps.append((g.num_points, step))
            return frac_integral(g, order, step)

        monkeypatch.setattr(specmodel.fracops, "frac_integral", spy)
        specmodel.frac_truth_profile(AR1, 0.25, 4097)
        specmodel.frac_truth_profile(AR1, 0.25, 8193)
        assert steps == [(specmodel.TRUTH_POINTS, 16), (specmodel.TRUTH_POINTS, 8)]

    def test_strided_profile_never_builds_the_full_grid(self):
        # the full-grid FFT of the 65,537-point truth grid peaks at 3.5 MiB
        # with its weights cached and 5.1 MiB without; the strided profile
        # peaks near 2 MiB, 1.5 of it the density on the truth grid
        specmodel.frac_truth_profile(AR1, 0.25, 4097)
        tracemalloc.start()
        try:
            specmodel.frac_truth_profile(AR1, 0.25, 4097)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("num_points", [3001, 12001, 40001])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.49])
    def test_profile_off_the_truth_grid_matches_a_finer_grid(self, num_points, alpha):
        # a grid whose spacing does not divide the truth grid's is integrated on
        # the K (N - 1) + 1-point grid; the same rule on a grid 4 times finer
        # agrees to 8.2e-10 of the largest value
        k = -(-(specmodel.TRUTH_POINTS - 1) // (num_points - 1))
        got = specmodel.frac_truth_profile(AR1, alpha, num_points).values
        fine = AR1.density_grid(4 * k * (num_points - 1) + 1)
        ref = specmodel.fracops.frac_integral(fine, 1.0 - alpha, 4 * k).values
        np.testing.assert_allclose(got, ref, rtol=0, atol=2e-9 * np.max(ref))

    def test_profile_off_the_truth_grid_caches_no_weights(self):
        # a full-grid FFT of the truth grid peaks at 5.1 MiB cold and caches
        # 1.5 MiB of weights; the strided profile needs neither
        specmodel.fracops._product_weights.cache_clear()
        tracemalloc.start()
        try:
            specmodel.frac_truth_profile(AR1, 0.25, 12001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert specmodel.fracops._product_weights.cache_info().currsize == 0
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("step", [0, -1, 7])
    def test_step_must_divide_the_grid(self, step):
        message = "must divide 4096" if step > 0 else "must be at least 1"
        with pytest.raises(DomainError, match=f"step {message}, got {step}$"):
            specmodel.frac_truth_profile(AR1, 0.25, 4097, step)


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
        assert np.interp(0.0, ej.grid, ej.values) == pytest.approx(oracle, rel=1e-8)

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
        val = specmodel.theta_point(CONST, 0.25, math.pi, math.pi)
        exact = 1.0 / (math.gamma(0.75) ** 2 * math.gamma(1.5))
        assert val == pytest.approx(exact, rel=1e-10)

    def test_diagonal_alpha_zero_is_beta_sq(self):
        for model in (CONST, AR1):
            assert specmodel.theta_point(model, 0.0, math.pi, math.pi) == pytest.approx(
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
        plain = specmodel.theta_point(CONST, 0.0, TWO_PI, TWO_PI)
        sym = specmodel.theta_point(CONST, 0.0, TWO_PI, TWO_PI, real_symmetry=True)
        assert sym == pytest.approx(plain, rel=1e-10)

    def test_matrix_is_psd_and_factor_reproduces(self):
        probes = np.array([1.0, 2.0, math.pi, 5.0, TWO_PI])
        cov = specmodel.limit_covariance(AR1, 0.25, probes)
        eig = np.linalg.eigvalsh(cov.matrix)
        assert eig.min() >= -1e-12
        np.testing.assert_allclose(cov.factor @ cov.factor.T, cov.matrix, atol=1e-10)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            specmodel.theta_point(CONST, 0.5, math.pi, math.pi)


class TestPsdClipping:
    """A Theta that Cholesky refuses gets its PSD projection and that
    projection's own square root, which reproduces it."""

    def test_indefinite_matrix_is_projected(self, monkeypatch):
        # Theta = [[1, 2], [2, 1]] has eigenvalues -1 and 3: the projection
        # keeps 3 v v^T, v = (1, 1) / sqrt 2
        monkeypatch.setattr(
            specmodel, "theta_point",
            lambda model, alpha, lam, mu, real_symmetry=False: np.where(lam == mu, 1.0, 2.0),
        )
        cov = specmodel.limit_covariance(CONST, 0.25, [1.0, 2.0])
        assert cov.clip_applied
        np.testing.assert_allclose(cov.matrix, np.full((2, 2), 1.5), rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(cov.matrix).min() >= -1e-12
        assert np.max(np.abs(cov.factor @ cov.factor.T - cov.matrix)) <= 1e-13 * 1.5

    def test_psd_matrix_is_not_clipped(self):
        cov = specmodel.limit_covariance(AR1, 0.25, [1.0, 2.0, 3.0])
        assert not cov.clip_applied

    def test_singular_matrix_gets_the_projection_square_root(self, monkeypatch):
        # the all-ones Theta is singular: Cholesky refuses it, and its
        # projection is itself up to rounding
        ones = np.ones((3, 3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(ones)
        monkeypatch.setattr(
            specmodel, "theta_point",
            lambda model, alpha, lam, mu, real_symmetry=False: np.ones_like(lam),
        )
        cov = specmodel.limit_covariance(CONST, 0.25, [1.0, 2.0, 3.0])
        assert np.max(np.abs(cov.matrix - ones)) <= 1e-13
        assert np.max(np.abs(cov.factor @ cov.factor.T - cov.matrix)) <= 1e-13


@pytest.fixture
def no_eigensolver(monkeypatch):
    """np.linalg.eigh and eigvalsh raise, and the Gauss rules are built anew."""

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    specmodel._gauss_jacobi.cache_clear()


class TestEigensolverFree:
    """A positive definite Theta, and the Gauss rules, need no eigensolver."""

    @pytest.mark.parametrize("real_symmetry", [False, True])
    def test_band_covariance_is_theta_and_its_cholesky_factor(
        self, no_eigensolver, real_symmetry
    ):
        probes = verify._band_probes(verify.BAND_PROBES)
        cov = specmodel.limit_covariance(AR1, 0.25, probes, real_symmetry=real_symmetry)
        rows, cols = np.tril_indices(probes.size)
        theta = specmodel.theta_point(AR1, 0.25, probes[rows], probes[cols], real_symmetry)
        assert np.array_equal(cov.matrix[rows, cols], theta)
        assert np.array_equal(cov.matrix[cols, rows], theta)
        assert not cov.clip_applied
        scale = np.max(np.abs(cov.matrix))
        assert np.max(np.abs(cov.factor @ cov.factor.T - cov.matrix)) <= 1e-12 * scale

    def test_confidence_band_and_monte_carlo_run(self, no_eigensolver):
        u0, coverage = verify.confidence_band(AR1, 0.25, 256, 0.05, 1000, seed=0, replications=5)
        assert u0 > 0 and 0.0 <= coverage <= 1.0
        config = verify.McConfig(alpha=0.25, n_list=(128,), replications=5, seed=0)
        assert len(verify.run_monte_carlo(AR1, config).rows["covariance"]) == 3

    def test_truth_verb_runs(self, no_eigensolver, tmp_path):
        config = Path(__file__).resolve().parents[1] / "configs" / "truth_custom.ini"
        assert cli.main(["truth", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "theta.csv").exists()

    def test_repeated_probe_takes_the_eigendecomposition(self, monkeypatch):
        # two equal rows make Theta singular, so Cholesky fails and the
        # eigenvectors give the projection and its square root
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
        cov = specmodel.limit_covariance(AR1, 0.25, [1.0, 2.0, 2.0, 3.0])
        assert len(calls) == 1
        scale = np.max(np.abs(cov.matrix))
        assert np.max(np.abs(cov.factor @ cov.factor.T - cov.matrix)) <= 1e-13 * scale


PAIRS = [
    (math.pi / 2, math.pi / 2), (TWO_PI, TWO_PI), (3.0, 3.0),
    (math.pi, math.pi / 2), (TWO_PI, 0.1), (5.0, 4.9), (6.0, 1.0), (TWO_PI, 6.0),
]


class TestProductRule:
    """The limit covariance against quad, at rtol 1e-10, on and off the diagonal."""

    @pytest.mark.parametrize("size", [1, 4, 12, 16])
    @pytest.mark.parametrize("exponent", [0.0, 0.25, 0.5, 0.9, 0.98])
    def test_gauss_jacobi_moments(self, exponent, size):
        # exact for t^k, k < 2 size: the integral of t^(k - exponent) over [0, 1]
        nodes, weights = specmodel._gauss_jacobi(exponent, size)
        k = np.arange(2 * size)
        moments = (nodes[:, None] ** k * weights[:, None]).sum(axis=0)
        np.testing.assert_allclose(moments, 1.0 / (k + 1.0 - exponent), rtol=1e-13)

    def test_gauss_jacobi_stops_at_its_sweep_cap(self, monkeypatch):
        # one sweep from the Gauss-Legendre guesses leaves steps far above a few ulps
        monkeypatch.setattr(specmodel, "_ROOT_SWEEPS", 1)
        with pytest.raises(NumericalError, match="did not converge in 1 sweeps"):
            specmodel._gauss_jacobi.__wrapped__(0.5, 12)

    @pytest.mark.parametrize("real_symmetry", [False, True])
    @pytest.mark.parametrize(
        "model", [CONST, AR1, SpectralModel.ar1(0.9), SpectralModel.ar1(-0.9)],
        ids=["constant", "ar1_0.5", "ar1_0.9", "ar1_-0.9"],
    )
    def test_parametric_matches_quad(self, model, real_symmetry):
        # the AR(1) peaks sit at the ends of [0, 2 pi] or at pi; quad splits there
        points = (math.pi,) if model.kind == "ar1" and model.rho < 0 else ()
        lam, mu = np.array(PAIRS).T
        val = specmodel.theta_point(model, 0.25, lam, mu, real_symmetry=real_symmetry)
        oracle = [_quad_theta(model, 0.25, a, b, real_symmetry, points) for a, b in PAIRS]
        np.testing.assert_allclose(val, oracle, rtol=1e-10)

    @pytest.mark.parametrize("real_symmetry", [False, True])
    def test_custom_grid_matches_per_cell_quad(self, real_symmetry):
        # f^2 is quadratic on each cell of the 4097-point grid; quad integrates
        # cell by cell. (pi/2, pi/2) is the pair whose quad error stopped `truth`
        pairs = [(math.pi / 2, math.pi / 2), (TWO_PI, TWO_PI), (math.pi, 1.0), (5.0, 4.999)]
        cells = tuple(CUSTOM_AR1.grid_fn.grid)
        for lam, mu in pairs:
            val = specmodel.theta_point(CUSTOM_AR1, 0.25, lam, mu, real_symmetry=real_symmetry)
            oracle = _quad_theta(CUSTOM_AR1, 0.25, lam, mu, real_symmetry, cells)
            assert val == pytest.approx(oracle, rel=1e-10), (lam, mu)

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.45])
    def test_custom_grid_diagonal_to_round_off(self, alpha):
        # a sharp AR(1) peak on a coarse grid, with most cells many widths below
        # mu: the diagonal holds to round-off there as well
        model = _tabulated_ar1(0.95, 65)
        cells = tuple(model.grid_fn.grid)
        mus = [1.0, math.pi / 2, 4.3, 5.0136, 61 * TWO_PI / 64, TWO_PI]
        val = specmodel.theta_point(model, alpha, mus, mus)
        oracle = [_quad_theta(model, alpha, mu, mu, points=cells) for mu in mus]
        np.testing.assert_allclose(val, oracle, rtol=1e-13)

    def test_custom_grid_is_close_to_its_parametric_density(self):
        # the tabulated AR(1) differs from AR(1) by the interpolation error, O(h^2)
        probes = np.array([math.pi / 2, math.pi, TWO_PI])
        tabulated = specmodel.limit_covariance(CUSTOM_AR1, 0.25, probes).matrix
        exact = specmodel.limit_covariance(AR1, 0.25, probes).matrix
        np.testing.assert_allclose(tabulated, exact, rtol=1e-6)

    def test_broadcasts_like_scalar_calls(self):
        lam = np.array([[1.0], [2.0], [TWO_PI]])
        mu = np.array([0.5, 2.0, 6.0])
        grid = specmodel.theta_point(AR1, 0.25, lam, mu, real_symmetry=True)
        assert grid.shape == (3, 3)
        for i, a in enumerate(lam[:, 0]):
            for j, b in enumerate(mu):
                scalar = specmodel.theta_point(AR1, 0.25, a, b, real_symmetry=True)
                assert isinstance(scalar, float)
                assert grid[i, j] == pytest.approx(scalar, rel=1e-14)

    def test_beta_sq_matches_quad(self):
        oracle = 4.0 * math.pi * quad(lambda x: AR1.density(x) ** 2, 0.0, 2.0, epsabs=1e-14)[0]
        assert specmodel.beta_sq(AR1, 2.0) == pytest.approx(oracle, rel=1e-12)

    def test_rule_gap_is_a_numerical_error(self, monkeypatch):
        # with two nodes the rule still integrates the constant diagonal, one
        # Gauss-Jacobi panel, exactly; off it the gap to the check rule is an
        # error that names the pair
        monkeypatch.setattr(specmodel, "_RULE_NODES", 2)
        assert specmodel.theta_point(CONST, 0.25, 3.0, 3.0) > 0
        with pytest.raises(NumericalError, match=r"at \(lam, mu\)=\(6, 1\)"):
            specmodel.theta_point(CONST, 0.25, [3.0, 6.0], [3.0, 1.0])

    @given(
        probes=st.lists(st.floats(0.01, TWO_PI), min_size=1, max_size=8, unique=True),
        alpha=st.sampled_from([0.0, 0.1, 0.25, 0.45]),
        rho=st.sampled_from([None, 0.5, 0.9, -0.9]),
        real_symmetry=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_covariance_is_symmetric_psd_with_theta_point(
        self, probes, alpha, rho, real_symmetry
    ):
        model = CONST if rho is None else SpectralModel.ar1(rho)
        probes = np.sort(probes)
        cov = specmodel.limit_covariance(model, alpha, probes, real_symmetry=real_symmetry)
        assert np.array_equal(cov.matrix, cov.matrix.T)
        scale = float(np.max(np.diag(cov.matrix)))
        assert np.linalg.eigvalsh(cov.matrix).min() >= -1e-12 * scale
        diag = [specmodel.theta_point(model, alpha, p, p, real_symmetry) for p in probes]
        # the projection moves the diagonal by at most the clipped eigenvalues
        np.testing.assert_allclose(np.diag(cov.matrix), diag, rtol=1e-9, atol=1e-12 * scale)


def _density_with_a_zero() -> GridFunction:
    values = np.ones(17)
    values[8] = 0.0
    return GridFunction(values, periodic=True)


#: (case, name, a call that passes it) of every count and size argument of specmodel
_WHOLE_ARGS = (
    ("truth-points", "num_points", lambda v: specmodel.frac_truth_profile(AR1, 0.25, v)),
    ("truth-step", "step", lambda v: specmodel.frac_truth_profile(AR1, 0.25, 17, v)),
    ("profile-points", "num_points", lambda v: specmodel.spectral_profile(AR1, v)),
    ("density-points", "num_points", lambda v: AR1.density_grid(v)),
    ("autocov-mmax", "mmax", lambda v: specmodel.autocovariance_batch(AR1, v)),
    ("fejer-n", "n", lambda v: specmodel.fejer_kernel(v, 1.0)),
    ("expected-n", "n", lambda v: specmodel.expected_periodogram(AR1, v, 17)),
    ("expected-out-grid", "out_grid", lambda v: specmodel.expected_periodogram(AR1, 64, v)),
)
_NOT_WHOLE = (64.7, math.nan, math.inf)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpectralModel("custom_grid"), "custom_grid model needs a GridFunction density"),
        (
            lambda: SpectralModel("custom_grid", grid_fn=_density_with_a_zero()),
            "custom density must be strictly positive",
        ),
        (lambda: SpectralModel("spline"), "unknown model kind 'spline'"),
        (
            lambda: specmodel.frac_truth_profile(AR1, 0.5, 17),
            "alpha must lie in [0, 1/2), got 0.5",
        ),
        (lambda: specmodel.fejer_kernel(0, 1.0), "n must be at least 1, got 0"),
        (lambda: specmodel.expected_periodogram(AR1, 0, 17), "n must be at least 1, got 0"),
        (lambda: specmodel.expected_periodogram(AR1, 8, 1), "out_grid must be at least 2, got 1"),
        (lambda: specmodel.beta_sq(AR1, -0.1), "lambda must lie in [0, 2*pi], got -0.1"),
        (lambda: specmodel.beta_sq(AR1, 7.0), "lambda must lie in [0, 2*pi], got 7.0"),
        # (7, 7) read below its value at (2 pi, 2 pi), (-1, 3) read 0, and on a
        # custom grid (7, 7) was a NumericalError
        *[
            (lambda lam=lam, mu=mu: specmodel.theta_point(AR1, 0.25, lam, mu),
             f"(lam, mu) must lie in [0, 2*pi], got {shown}")
            for lam, mu, shown in ((7.0, 7.0, "(7, 7)"), (-1.0, 3.0, "(-1, 3)"),
                                   (math.nan, 1.0, "(nan, 1)"))
        ],
        (
            lambda: specmodel.theta_point(_tabulated_ar1(0.5, 257), 0.25, [1.0, 7.0], [1.0, 7.0]),
            "(lam, mu) must lie in [0, 2*pi], got (7, 7)",
        ),
        # f^2 overflows to inf, and underflows to 0: each was written as a value
        *[
            (lambda c=c: specmodel.limit_covariance(SpectralModel.constant(c), 0.25, [1.0, 2.0]),
             f"limit covariance {shown} with quadrature error {gap} at (lam, mu)=(1, 1)")
            for c, shown, gap in ((1e300, "inf", "nan"), (1e-300, "0", "0"))
        ],
        (
            lambda: specmodel.limit_covariance(AR1, 0.5, [1.0]),
            "alpha must lie in [0, 1/2), got 0.5",
        ),
        (
            lambda: specmodel.limit_covariance(AR1, 0.25, []),
            "probe_lambdas must hold between 1 and 1024 values, got 0",
        ),
        (
            lambda: specmodel.limit_covariance(AR1, 0.25, [[1.0, 2.0]]),
            "probe_lambdas must be a 1-d list, got shape (1, 2)",
        ),
        (
            lambda: specmodel.limit_covariance(AR1, 0.25, [0.0, 1.0]),
            "probe_lambdas must lie in (0, 2*pi], got (0.0, 1.0)",
        ),
        (
            lambda: specmodel.limit_covariance(AR1, 0.25, [1.0, 7.0]),
            "probe_lambdas must lie in (0, 2*pi], got (1.0, 7.0)",
        ),
        (
            # the bound of the CLI's probe_lambdas holds for library callers too
            lambda: specmodel.limit_covariance(AR1, 0.25, np.linspace(0.005, TWO_PI, 1025)),
            "probe_lambdas must hold between 1 and 1024 values, got 1025",
        ),
        # 1 point divided by zero, and 0 named frac_integral's step
        *[
            (lambda call=call, size=size: call(size), f"num_points must be at least 2, got {size}")
            for call in (lambda v: specmodel.frac_truth_profile(AR1, 0.25, v),
                         lambda v: specmodel.spectral_profile(AR1, v))
            for size in (1, 0)
        ],
        *[
            (lambda call=call, bad=bad: call(bad), f"{name} must be a whole number, got {bad!r}")
            for _, name, call in _WHOLE_ARGS for bad in _NOT_WHOLE
        ],
        # it used to fail in numpy with a TypeError
        (
            lambda: specmodel.expected_periodogram(AR1, 64, 257.5),
            "out_grid must be a whole number, got 257.5",
        ),
        # MAX_GRID_POINTS, the bound of every verb, holds for library callers too
        *[
            (lambda call=call: call(MAX_GRID_POINTS + 1),
             f"num_points must be at most {MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}")
            for call in (lambda v: specmodel.frac_truth_profile(AR1, 0.25, v),
                         lambda v: specmodel.spectral_profile(AR1, v))
        ],
        # r(0) = 2 pi c overflows and the series reads inf - inf; it ended as
        # "grid values must be finite", naming no input
        (
            lambda: specmodel.expected_periodogram(SpectralModel.constant(1e308), 64, 405),
            "Fejer mean of n = 64 overflows on the 405-point grid",
        ),
    ],
    ids=[
        "custom-no-grid", "custom-zero-density", "unknown-kind", "truth-alpha-half",
        "fejer-n-0", "expected-n-0", "expected-out-grid-1", "beta-below-0", "beta-above-2pi",
        "pair-7-7", "pair-neg-1-3", "pair-nan-1", "pair-custom-grid-7-7",
        "theta-c-1e300", "theta-c-1e-300",
        "theta-alpha-half", "theta-no-probes", "theta-2d-probes", "theta-probe-0",
        "theta-probe-above-2pi", "theta-1025-probes", "truth-1-point", "truth-0-points",
        "profile-1-point", "profile-0-points",
        *[f"{case}-{bad}" for case, _, _ in _WHOLE_ARGS for bad in _NOT_WHOLE],
        "expected-out-grid-257.5", "truth-above-max", "profile-above-max",
        "expected-overflow",
    ],
)
def test_refusals_name_the_bad_input(call, message):
    # a density whose f^2 or Fejer mean leaves the float range is a numerical error,
    # the rest domain errors
    error = NumericalError if message.startswith(("limit covariance", "Fejer")) else DomainError
    with pytest.raises(error) as exc:
        call()
    assert message in str(exc.value)
