import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracspec import DomainError, TWO_PI
from fracspec import estimate, gsim, specmodel, verify
from fracspec.grid import csv_table
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)


def _config(**kw) -> verify.McConfig:
    base = dict(model=CONST, alpha=0.25, n_list=(128,), replications=20, seed=3)
    base.update(kw)
    return verify.McConfig(**base)


class TestMcConfig:
    def test_defaults_fill_in(self):
        cfg = _config()
        assert cfg.holder_delta == pytest.approx(0.5 - 0.25 - 0.05)
        assert cfg.delta_confidence == 0.05
        assert cfg.tail_u_grid == verify.DEFAULT_TAIL_GRID

    def test_rejects_alpha_at_half(self):
        with pytest.raises(DomainError):
            _config(alpha=0.5)

    def test_rejects_holder_delta_at_boundary(self):
        # delta must stay strictly below 1/2 - alpha
        with pytest.raises(DomainError):
            _config(alpha=0.25, holder_delta=0.25)
        with pytest.raises(DomainError):
            _config(alpha=0.25, holder_delta=0.3)

    def test_rejects_zero_replications(self):
        with pytest.raises(DomainError):
            _config(replications=0)

    def test_rejects_one_replication(self):
        # the sample covariance of one replication is NaN, and report.json then
        # held bare NaN tokens
        with pytest.raises(DomainError, match="replications must be at least 2, got 1"):
            _config(replications=1)

    def test_two_replications_give_strict_json(self):
        def refuse(token):
            raise ValueError(f"non-finite {token} in report.json")

        report = verify.run_monte_carlo(_config(n_list=(64,), replications=2))
        payload = json.loads(report.to_json_text(), parse_constant=refuse)
        assert len(payload["covariance"]) == 3

    def test_rejects_unsorted_probes(self):
        with pytest.raises(DomainError):
            _config(probe_lambdas=(3.0, 1.0))


class TestReplicate:
    @pytest.mark.parametrize("model", [CONST, AR1], ids=["constant", "ar1"])
    def test_matches_explicit_chain_in_stream_order(self, model):
        n, alpha, pts, seed, streams = 128, 0.25, 1025, 9, (5, 0, 3)
        got = list(verify.replicate(model, n, alpha, pts, seed, streams))
        assert len(got) == len(streams)
        for values, stream in zip(got, streams):
            path = gsim.sample_path(model, n, seed, stream=stream)
            expected = estimate.frac_estimate(estimate.periodogram(path, pts), alpha)
            assert np.array_equal(values, expected.values)


class TestCenteredProcesses:
    def test_bias_curve_decreases_with_n(self):
        sups = []
        for n in (256, 1024):
            mean_fn = verify.expected_estimate(AR1, n, 0.25, 1025)
            truth = specmodel.frac_truth_profile(AR1, 0.25, 1025)
            sups.append(np.max(np.abs(mean_fn.values - truth.values)))
        assert sups[1] < sups[0]


@pytest.fixture(scope="module")
def small_report():
    return verify.run_monte_carlo(_config(n_list=(128,), replications=60))


class TestRunMonteCarlo:
    def test_report_tables_complete(self, small_report):
        rep = small_report
        assert {r[0] for r in rep.bias_rows} == {128}
        assert len(rep.cov_rows) == 3  # two probes: (1,1), (1,2), (2,2)
        assert len(rep.normality_rows) == 2
        assert len(rep.holder_rows) == len(verify.DEFAULT_H_GRID)
        assert len(rep.fejer_rows) == 1
        assert len(rep.confidence_rows) == 1

    def test_tail_censoring(self, small_report):
        censor = 2.0 / small_report.replications
        for (_, _, _, w, censored) in small_report.tail_rows:
            assert censored == (w < censor)

    def test_json_round_trips(self, small_report):
        payload = json.loads(small_report.to_json_text())
        assert payload["replications"] == 60
        assert "runtime_s" not in payload  # byte-identical reruns

    def test_deterministic(self):
        cfg = _config(replications=10)
        a = verify.run_monte_carlo(cfg).to_json_text()
        b = verify.run_monte_carlo(cfg).to_json_text()
        assert a == b

    def test_csv_tables_have_headers(self, small_report):
        tables = small_report.csv_tables(["fracspec", "seed = 3"])
        assert tables["cov.csv"].startswith("# fracspec\n# seed = 3\nn,lambda,mu,emp,theory,rel_err\n")
        assert tables["tails.csv"].startswith("# fracspec\n# seed = 3\nn,u,w0,w\n")

    def test_variance_matches_symmetric_convention(self):
        # empirical n * Var at interior probes matches the mirror-corrected
        # covariance (the even-weight constant is 2x larger there)
        cfg = _config(n_list=(512,), replications=300, seed=21)
        rep = verify.run_monte_carlo(cfg)
        for (n, lam, mu, emp, _theory, _rel) in rep.cov_rows:
            sym = specmodel.theta_point(CONST, 0.25, lam, mu, real_symmetry=True)
            assert emp == pytest.approx(sym, rel=0.35)


class TestConfidenceBand:
    def test_coverage_with_symmetric_convention(self):
        u0, coverage = verify.confidence_band(
            CONST, 0.25, 512, 0.05, 2000, seed=5, replications=150, real_symmetry=True
        )
        assert u0 > 0
        assert 0.85 <= coverage <= 1.0

    def test_rejects_tiny_calibration(self):
        with pytest.raises(DomainError):
            verify.confidence_band(CONST, 0.25, 64, 0.05, 10, seed=0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"replications": 0}, "replications must be at least 1, got 0"),
            ({"num_probes": 0}, "num_probes must be between 1 and 1024, got 0"),
            ({"num_probes": -3}, "num_probes must be between 1 and 1024, got -3"),
            ({"num_probes": verify.MAX_PROBES + 1}, "between 1 and 1024, got 1025"),
        ],
    )
    def test_rejects_sizes_out_of_bounds(self, kw, message):
        with pytest.raises(DomainError, match=message):
            verify.confidence_band(CONST, 0.25, 64, 0.05, 1000, seed=0, **kw)

    @pytest.mark.parametrize("num_probes, step", [(64, 64), (48, 1)])
    def test_matches_full_grid_oracle(self, monkeypatch, num_probes, step):
        # n = 256 gives 4097 grid points: 64 probes fall on every 64th point
        # (the strided estimate), 48 probes do not (the full grid); delta = 0.5
        # keeps the coverage (0.825 and 0.8) away from 1
        model, alpha, n, delta, draws, seed, reps = AR1, 0.25, 256, 0.5, 1000, 4, 40
        steps = []
        frac_integral = verify.fracops.frac_integral

        def spy(g, order, step=1):
            steps.append(step)
            return frac_integral(g, order, step)

        monkeypatch.setattr(verify.fracops, "frac_integral", spy)
        got = verify.confidence_band(
            model, alpha, n, delta, draws, seed, replications=reps, num_probes=num_probes
        )
        assert steps[-reps:] == [step] * reps
        monkeypatch.undo()
        assert got == _full_grid_band(model, alpha, n, delta, draws, seed, reps, num_probes)


def _full_grid_band(model, alpha, n, delta, draws, seed, reps, num_probes):
    """Oracle: calibrate u0 on the probes, then count the replications whose
    full-grid estimate, interpolated at the probes, stays within u0 / sqrt(n)
    of the interpolated truth."""
    probes = np.linspace(TWO_PI / num_probes, TWO_PI, num_probes)
    cov = specmodel.limit_covariance(model, alpha, probes)
    sims = gsim.sample_limit_process(cov, seed + verify._STREAM_CALIBRATION, draws)
    u0 = float(np.quantile(np.max(np.abs(sims), axis=0), 1.0 - delta))
    num_points = estimate.default_grid_points(n)
    truth = specmodel.frac_truth_profile(model, alpha, num_points).interp(probes)
    hits = 0
    for r in range(reps):
        path = gsim.sample_path(model, n, seed, stream=verify._STREAM_COVERAGE + r)
        est = estimate.frac_estimate(estimate.periodogram(path, num_points), alpha)
        hits += np.max(np.abs(est.interp(probes) - truth)) <= u0 / np.sqrt(n)
    return u0, hits / reps


def test_csv_table_formats_ints_and_floats():
    rows = [(3, 0.1, np.float64(2.0) / 3.0), (4, 1.0, "censored")]
    text = csv_table("n,x,y", rows)
    assert text == "n,x,y\n3,0.10000000000000001,0.66666666666666663\n4,1,censored\n"
    text = csv_table("n,x,y", rows[1:], comments=["fracspec 0.1.0", "seed = 3"])
    assert text == "# fracspec 0.1.0\n# seed = 3\nn,x,y\n4,1,censored\n"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, reps", [("tail_envelope.py", "300"), ("variance_convergence.py", "100")]
)
def test_script_runs(script, reps):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--n", "128", "--reps", reps],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
