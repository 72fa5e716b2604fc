"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with the measured quantity and asserts
the stated tolerance. Heavy Monte Carlo inputs are shared via session
fixtures so the whole file runs in a few minutes.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from fracspec import GridFunction, TWO_PI
from fracspec import estimate, fracops, gsim, specmodel, verify
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)
PI = math.pi


def _check(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {description} [{detail}]"
    print(line)
    assert ok, line


# --- shared Monte Carlo runs -------------------------------------------------


@pytest.fixture(scope="session")
def run_var_const():
    """Constant model, n = 2048: probe values of the alpha = 0.25 and alpha = 0
    estimators from the same 800 replications (criteria 5 and 6)."""
    n, reps, pts = 2048, 800, 8193
    lam = np.linspace(0.0, TWO_PI, pts)

    def probe_values(alpha, probes):
        # draws are keyed by (seed, stream): both orders see the same paths
        runs = verify.replicate(CONST, n, alpha, pts, 101, range(reps))
        return np.array([np.interp(probes, lam, values) for values in runs])

    return n, probe_values(0.25, np.array([PI / 2, PI])), probe_values(0.0, PI)


@pytest.fixture(scope="session")
def run_centered_const():
    """Constant model, n = 2048, R = 400: centered process on the full grid
    (criteria 7 and 9)."""
    n, reps, pts = 2048, 400, 8193
    mean_fn = verify.expected_estimate(CONST, n, 0.25, pts)
    lam = np.linspace(0.0, TWO_PI, pts)
    scale = math.sqrt(n)
    h_grid = np.array(verify.DEFAULT_H_GRID)
    zeta_pi = np.empty(reps)
    moduli = np.empty((reps, h_grid.size))
    for r, values in enumerate(verify.replicate(CONST, n, 0.25, pts, 202, range(reps))):
        centered = scale * (values - mean_fn.values)
        zeta_pi[r] = np.interp(PI, lam, centered)
        moduli[r] = fracops.modulus_profile(GridFunction(centered), h_grid)
    return zeta_pi, moduli, h_grid


@pytest.fixture(scope="session")
def run_tails():
    """Constant model, n = 1024, R = 2000: sup of |centered process| per
    replication (criterion 10)."""
    n, reps, pts = 1024, 2000, 4097
    mean_fn = verify.expected_estimate(CONST, n, 0.25, pts)
    scale = math.sqrt(n)
    runs = verify.replicate(CONST, n, 0.25, pts, 303, range(reps))
    sups = np.array([scale * np.max(np.abs(values - mean_fn.values)) for values in runs])
    return sups, reps


# --- criteria ----------------------------------------------------------------


def test_criterion_01_abel_inversion():
    worst = 0.0
    for alpha in (0.1, 0.25, 0.4):
        g = GridFunction(np.sin(np.linspace(0.0, TWO_PI, 4096)))
        recon = fracops.frac_derivative(fracops.frac_integral(g, alpha), alpha)
        interior = slice(1, -1)
        worst = max(worst, float(np.max(np.abs(recon.values[interior] - g.values[interior]))))
    _check(1, "Abel inversion sup error <= 1e-3", worst <= 1e-3, f"sup={worst:.2e}")


def test_criterion_02_power_rule():
    beta, x = 0.5, PI
    worst = 0.0
    for mu in (0.5, 1.0, 2.0):
        g = GridFunction(np.linspace(0.0, TWO_PI, 8192) ** mu)
        out = fracops.frac_integral(g, beta)
        exact = math.gamma(mu + 1) / math.gamma(mu + beta + 1) * x ** (mu + beta)
        worst = max(worst, abs(np.interp(x, out.grid, out.values) - exact) / exact)
    _check(2, "fractional power rule rel error <= 1e-4", worst <= 1e-4, f"rel={worst:.2e}")


def test_criterion_03_estimator_reduction():
    path = gsim.sample_path(CONST, 64, seed=7)
    j = estimate.periodogram(path, 4097)
    a = estimate.frac_estimate(j, 0.0).values
    b = estimate.empirical_spectral_function(j).values
    reduction = float(np.max(np.abs(a - b)))
    mass = np.trapezoid(j.values, dx=j.spacing)
    energy = float(path.values @ path.values) / path.n
    parseval = abs(mass - energy)
    ok = reduction <= 1e-12 and parseval <= 1e-8
    _check(
        3, "alpha=0 reduction and Parseval identity", ok,
        f"reduction={reduction:.2e}, parseval={parseval:.2e}",
    )


def test_criterion_04_limit_variance_closed_form():
    val = specmodel.theta_point(CONST, 0.25, PI, PI)
    exact = 1.0 / (math.gamma(0.75) ** 2 * math.gamma(1.5))
    rel = abs(val - exact) / exact
    _check(4, "limit variance matches Gamma closed form", rel <= 1e-4, f"rel={rel:.2e}")


def test_criterion_05_mc_variance_convergence(run_var_const):
    n, a_vals, _ = run_var_const
    cov = n * np.cov(a_vals.T)
    var_target = specmodel.theta_point(CONST, 0.25, PI, PI)
    cross_target = specmodel.theta_point(CONST, 0.25, PI / 2, PI)
    var_rel = abs(cov[1, 1] - var_target) / var_target
    cross_rel = abs(cov[0, 1] - cross_target) / cross_target
    ok = var_rel <= 0.15 and cross_rel <= 0.20
    _check(
        5, "n*Var within 15% / cross-cov within 20% of stated limit", ok,
        f"var_rel={var_rel:.3f}, cross_rel={cross_rel:.3f}",
    )


def test_criterion_06_alpha_zero_variance(run_var_const):
    n, _, z_vals = run_var_const
    var = n * float(np.var(z_vals, ddof=1))
    target = specmodel.beta_sq(CONST, PI)  # = 1 for c = 1/(2 pi)
    rel = abs(var - target) / target
    _check(
        6, "alpha=0 variance within 15% of beta^2(pi) = 1", rel <= 0.15,
        f"n*Var={var:.3f}, rel={rel:.3f}",
    )


def test_criterion_07_normality(run_centered_const):
    zeta_pi, _, _ = run_centered_const
    sigma = math.sqrt(specmodel.theta_point(CONST, 0.25, PI, PI))
    _, p = stats.kstest(zeta_pi / sigma, "norm")
    _check(7, "KS normality p >= 0.01 for standardized process at pi", p >= 0.01, f"p={p:.4f}")


def test_criterion_08_bias_decay():
    reps, alpha, pts = 400, 0.25, 4097
    truth = specmodel.frac_truth_profile(AR1, alpha, pts)
    sup_bias = {}
    for n in (512, 2048):
        acc = np.zeros(pts)
        for values in verify.replicate(AR1, n, alpha, pts, 404, range(reps)):
            acc += values
        sup_bias[n] = float(np.max(np.abs(acc / reps - truth.values)))
    factor = sup_bias[512] / sup_bias[2048]
    _check(
        8, "sup-grid bias drops >= 1.5x from n=512 to n=2048", factor >= 1.5,
        f"bias512={sup_bias[512]:.4f}, bias2048={sup_bias[2048]:.4f}, factor={factor:.2f}",
    )


def test_criterion_09_holder_modulus(run_centered_const):
    _, moduli, h_grid = run_centered_const
    delta = 0.5 - 0.25 - 0.05
    q95 = np.quantile(moduli / h_grid**delta, 0.95, axis=0)
    spread = float(q95.max() / q95.min())
    _check(
        9, "95th-pct modulus ratio varies <= 4x over dyadic windows", spread <= 4.0,
        f"spread={spread:.2f}",
    )


def test_criterion_10_exponential_tails(run_tails):
    sups, reps = run_tails
    censor = 2.0 / reps
    u_grid = np.arange(0.25, float(sups.max()) + 0.25, 0.25)
    w = np.array([np.mean(sups > u) for u in u_grid])
    fit_mask = (w >= 0.01) & (w <= 0.5)
    slope, intercept = np.polyfit(u_grid[fit_mask], np.log(w[fit_mask]), 1)
    check_mask = (u_grid > u_grid[fit_mask].max()) & (w >= censor)
    envelope = np.exp(intercept + slope * u_grid[check_mask])
    margin = float(np.max(w[check_mask] / envelope)) if check_mask.any() else 0.0
    ok = slope < 0 and margin <= 2.0
    _check(
        10, "exponential tail: negative slope, envelope within 2x", ok,
        f"slope={slope:.2f}, margin={margin:.2f}",
    )


def test_criterion_11_confidence_coverage():
    _, coverage = verify.confidence_band(
        CONST, 0.25, 2048, 0.05, 5000, seed=505, replications=400
    )
    ok = 0.90 <= coverage <= 0.99
    _check(11, "band coverage in [0.90, 0.99]", ok, f"coverage={coverage:.3f}")


def test_criterion_12_cli_determinism(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[model]\nkind = constant\nc = 0.15915494309189535\n\n"
        "[mc]\nalpha = 0.25\nn_list = 256\nreplications = 20\nseed = 1\n",
        encoding="utf-8",
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "fracspec", "mc",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    mismatch = [
        p.name for p in sorted(outs[0].iterdir())
        if p.read_bytes() != (outs[1] / p.name).read_bytes()
    ]
    _check(12, "CLI reruns are byte-identical", not mismatch, f"mismatch={mismatch or 'none'}")
