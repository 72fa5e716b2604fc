import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracspec import DomainError, GridFunction, TWO_PI
from fracspec import estimate, gsim, specmodel, verify
from fracspec.grid import csv_table
from fracspec.specmodel import SpectralModel

CONST = SpectralModel.constant(1.0 / TWO_PI)
AR1 = SpectralModel.ar1(0.5)
_NOT_WHOLE = (64.7, math.nan, math.inf)


def _config(**kw) -> verify.McConfig:
    base = dict(alpha=0.25, n_list=(128,), replications=20, seed=3)
    base.update(kw)
    return verify.McConfig(**base)


class TestMcConfig:
    def test_defaults_fill_in(self):
        cfg = _config()
        assert cfg.holder_delta == pytest.approx(0.5 - 0.25 - 0.05)
        assert cfg.delta_confidence == 0.05
        assert cfg.tail_u_grid == verify.DEFAULT_TAIL_GRID

    @pytest.mark.parametrize(
        "alpha, delta", [(0.44, 0.01), (0.49, 0.01), (0.495, 0.0025), (0.499, 0.0005)]
    )
    def test_default_holder_delta_lies_below_half_minus_alpha(self, alpha, delta):
        # the floor 0.01 is not below 1/2 - alpha above 0.49, where half of that gap
        # is taken; 0.495 and 0.499 used to be refused naming holder_delta
        assert _config(alpha=alpha).holder_delta == pytest.approx(delta, rel=1e-12)

    def test_rejects_alpha_at_half(self):
        with pytest.raises(DomainError):
            _config(alpha=0.5)

    def test_rejects_holder_delta_at_boundary(self):
        # delta must stay strictly below 1/2 - alpha
        with pytest.raises(DomainError):
            _config(alpha=0.25, holder_delta=0.25)
        with pytest.raises(DomainError):
            _config(alpha=0.25, holder_delta=0.3)

    @pytest.mark.parametrize("delta", [-0.2, 0.0, 0.5])
    def test_rejects_holder_delta_outside_range_at_alpha_zero(self, delta):
        with pytest.raises(DomainError, match=r"holder_delta must lie in \(0, 1/2 - alpha\)"):
            _config(alpha=0.0, holder_delta=delta)

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

        report = verify.run_monte_carlo(CONST, _config(n_list=(64,), replications=2))
        payload = json.loads(report.to_json_text(), parse_constant=refuse)
        assert len(payload["covariance"]) == 3

    @pytest.mark.parametrize("count", [2, specmodel.MAX_PROBES])
    def test_replications_bounded_by_kept_floats(self, count):
        # each replication keeps count + 8 floats until the run ends; an
        # unbounded count used to fail in the final concatenation, after the run
        probes = tuple(np.linspace(0.005, TWO_PI, count))
        most = 2**25 // (count + 8)
        assert _config(probe_lambdas=probes, replications=most).replications == most
        with pytest.raises(
            DomainError, match=f"at most {most} for {count} probe_lambdas, got {most + 1}"
        ):
            _config(probe_lambdas=probes, replications=most + 1)

    def test_rejects_unsorted_probes(self):
        with pytest.raises(DomainError):
            _config(probe_lambdas=(3.0, 1.0))

    @pytest.mark.parametrize("count", [0, specmodel.MAX_PROBES + 1])
    def test_rejects_probe_count_out_of_bounds(self, count):
        probes = tuple(np.linspace(0.005, TWO_PI, count))
        with pytest.raises(DomainError, match=f"between 1 and 1024 values, got {count}"):
            _config(probe_lambdas=probes)

    @pytest.mark.parametrize("u", [math.nan, math.inf])
    def test_rejects_tail_u_grid_not_finite(self, u):
        # a nan threshold exited 0, with a bare NaN token in report.json and a
        # "nan" row in tails.csv
        with pytest.raises(DomainError, match=r"tail_u_grid entries must be finite, got \(1.0, "):
            _config(tail_u_grid=(1.0, u))

    # construct only: the first plan asked _fejer_bias for a grid of about 7e12
    # points, the second for grids of 1e9 floats
    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"n_list": (specmodel.MAX_N + 1,)}, "n_list must be at most 1048576, got 1048577"),
            ({"n_list": (2**40,)}, "n_list must be at most 1048576, got 1099511627776"),
            ({"grid_points": estimate.MAX_GRID_POINTS + 1}, "grid_points must be at most 65537"),
            ({"grid_points": 10**9}, "grid_points must be at most 65537, got 1000000000"),
            ({"grid_points": 1}, "grid_points must be at least 2, got 1"),
            ({"grid_points": -1}, "grid_points must be at least 2, got -1"),
        ],
        ids=["n-above-max", "n-2-40", "grid-above-max", "grid-1e9", "grid-1", "grid-negative"],
    )
    def test_rejects_sizes_outside_the_cli_bounds(self, kw, message):
        with pytest.raises(DomainError, match=message):
            _config(**kw)

    @pytest.mark.parametrize("grid_points", [2, 65, 128])
    def test_rejects_grid_coarser_than_the_narrowest_window(self, grid_points):
        # such a grid passed every check, then modulus_profile refused the
        # window 2 pi / 128 mid-run, naming no key
        with pytest.raises(
            DomainError, match=f"grid_points must be 0 or at least 129, .* got {grid_points}$"
        ):
            _config(grid_points=grid_points)

    def test_whole_floats_are_taken_as_ints(self):
        cfg = _config(n_list=(512.0, np.int64(64)), replications=np.int16(20), seed=3.0,
                      grid_points=4097.0)
        sizes = (*cfg.n_list, cfg.replications, cfg.seed, cfg.grid_points)
        assert sizes == (512, 64, 20, 3, 4097)
        assert {type(v) for v in sizes} == {int}

    @pytest.mark.parametrize("grid_points, kept", [(None, None), (0, None), (129, 129)])
    def test_accepts_automatic_and_narrowest_window_grids(self, grid_points, kept):
        assert _config(grid_points=grid_points).grid_points == kept
        assert min(verify.DEFAULT_H_GRID) == TWO_PI / (verify._MIN_MC_GRID_POINTS - 1)


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
    return verify.run_monte_carlo(CONST, _config(n_list=(128,), replications=60))


class TestRunMonteCarlo:
    def test_report_tables_complete(self, small_report):
        rep = small_report
        assert {r[0] for r in rep.rows["bias"]} == {128}
        assert len(rep.rows["covariance"]) == 3  # two probes: (1,1), (1,2), (2,2)
        assert len(rep.rows["normality"]) == 2
        assert len(rep.rows["holder"]) == len(verify.DEFAULT_H_GRID)
        assert len(rep.rows["fejer"]) == 1
        assert len(rep.rows["confidence"]) == 1

    def test_tail_censoring(self, small_report):
        censor = 2.0 / small_report.replications
        for (_, _, _, w, censored) in small_report.rows["tails"]:
            assert censored == (w < censor)

    def test_json_round_trips(self, small_report):
        payload = json.loads(small_report.to_json_text())
        assert payload["replications"] == 60
        assert "runtime_s" not in payload  # byte-identical reruns

    def test_bundle_follows_mc_tables(self, small_report):
        # MC_TABLES states each table's file, header, order and report.json key once
        payload = json.loads(small_report.to_json_text())
        tables = small_report.csv_tables([])
        assert list(tables) == [name for name, *_ in verify.MC_TABLES]
        assert set(payload) == {"seed", "model_id", "alpha", "replications", "sup_bias", "fejer",
                                *(key for *_, key in verify.MC_TABLES)}
        for name, head, key in verify.MC_TABLES:
            lines = tables[name].splitlines()
            assert lines[0] == head
            assert len(lines) - 1 == len(payload[key]) > 0

    def test_deterministic(self):
        cfg = _config(replications=10)
        a = verify.run_monte_carlo(CONST, cfg).to_json_text()
        b = verify.run_monte_carlo(CONST, cfg).to_json_text()
        assert a == b

    def test_csv_tables_have_headers(self, small_report):
        tables = small_report.csv_tables(["fracspec", "seed = 3"])
        assert tables["cov.csv"].startswith("# fracspec\n# seed = 3\nn,lambda,mu,emp,theory,rel_err\n")
        assert tables["tails.csv"].startswith("# fracspec\n# seed = 3\nn,u,w0,w\n")

    def test_pool_has_no_more_workers_than_blocks(self, pool_sizes):
        # 130 replications are 3 blocks; a fork pool of 64 would start 64 processes
        cfg = _config(n_list=(64,), replications=130)
        report = verify.run_monte_carlo(CONST, cfg, threads=64)
        assert pool_sizes == [3]
        assert report.to_json_text() == verify.run_monte_carlo(CONST, cfg).to_json_text()

    def test_rejects_threads_not_whole_before_any_work(self, monkeypatch):
        monkeypatch.setattr(verify, "limit_covariance", None)
        with pytest.raises(DomainError, match=r"threads must be a whole number, got 1.5$"):
            verify.run_monte_carlo(CONST, _config(), threads=1.5)

    def test_variance_matches_symmetric_convention(self):
        # empirical n * Var at interior probes matches the mirror-corrected
        # covariance (the even-weight constant is 2x larger there)
        cfg = _config(n_list=(512,), replications=300, seed=21)
        rep = verify.run_monte_carlo(CONST, cfg)
        for (n, lam, mu, emp, _theory, _rel) in rep.rows["covariance"]:
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
            ({"num_probes": 0}, "num_probes must be at least 1, got 0"),
            ({"num_probes": -3}, "num_probes must be at least 1, got -3"),
            ({"num_probes": specmodel.MAX_PROBES + 1}, "at most 1024, got 1025"),
            *[
                ({key: bad}, f"{key} must be a whole number, got {bad!r}")
                for key in ("n", "calibration_draws", "replications", "num_probes", "seed")
                for bad in _NOT_WHOLE
            ],
        ],
    )
    def test_rejects_sizes_out_of_bounds(self, kw, message):
        plan = dict(alpha=0.25, n=64, delta=0.05, calibration_draws=1000, seed=0) | kw
        with pytest.raises(DomainError, match=message):
            verify.confidence_band(CONST, **plan)

    @pytest.mark.parametrize("n", [0, -5, specmodel.MAX_N + 1, 64.5])
    def test_rejects_n_before_any_work(self, monkeypatch, n):
        # n = 0 used to calibrate u0, then divide by zero; 64.5 drew 64-point
        # paths and tested them against u0 / sqrt(64.5)
        calls = []
        monkeypatch.setattr(verify, "limit_covariance", lambda *a, **kw: calls.append(a))
        message = ("a whole number" if n != int(n) else "at least 1" if n < 1
                   else f"at most {specmodel.MAX_N}")
        with pytest.raises(DomainError, match=f"n must be {message}, got {n}$"):
            verify.confidence_band(CONST, 0.25, n, 0.05, 1000, seed=0)
        assert calls == []

    def test_rejects_calibration_block_above_bound(self, monkeypatch):
        # 64 probes x 10^12 draws used to fail allocating a 466 TiB block;
        # the check runs before the limit covariance is computed
        monkeypatch.setattr(verify, "limit_covariance", None)
        with pytest.raises(
            DomainError, match="calibration_draws must be at most 524288 for 64 probes"
        ):
            verify.confidence_band(CONST, 0.25, 64, 0.05, 10**12, seed=0)

    def test_calibration_holds_one_block_of_draws(self, monkeypatch):
        # the normals are one probes x draws block; their product with the
        # factor used to be held whole beside them, then beside its absolute
        # values (a tracemalloc peak of 2.02 blocks)
        probes, draws = 64, 40_000
        cov = specmodel.limit_covariance(AR1, 0.25, verify._band_probes(probes))
        monkeypatch.setattr(verify, "limit_covariance", lambda *args, **kw: cov)
        tracemalloc.start()
        try:
            verify._band_half_width(AR1, 0.25, probes, False, 3, draws, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * probes * draws * 8

    @pytest.mark.parametrize(
        "probes, draws", [(64, 5000), (1024, 1500), (7, 1001), (100, 4099)]
    )
    def test_sup_norms_match_the_full_product(self, probes, draws):
        # the column blocks end where the full product's columns do not
        # (1500 and 4099 draws), and 7 probes fit every draw in one block
        rng = np.random.default_rng(probes)
        factor = np.tril(rng.standard_normal((probes, probes)))
        grid = verify._band_probes(probes)
        cov = specmodel.LimitCovariance(grid, factor @ factor.T, factor, False)
        full = np.max(np.abs(gsim.sample_limit_process(cov, 11, draws)), axis=0)
        np.testing.assert_allclose(verify._sup_norms(cov, 11, draws), full, rtol=1e-13, atol=0)

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


@pytest.mark.parametrize("n", [*range(1, 61), 399, 400, 401, 2000, 5000])
def test_quantile_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    ties = rng.integers(-4, 4, n) * 0.25
    spread = rng.standard_normal(n) * 3.0 - 1.0
    for x in (ties, spread):
        for q in (0.0, 0.05, 0.5, 0.9, 0.95, 0.99, 1.0):
            got = verify._quantile(x, q)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.quantile(x, q).tobytes(), (q, got)


def _full_grid_band(model, alpha, n, delta, draws, seed, reps, num_probes):
    """Oracle: calibrate u0 on the probes, then count the replications whose
    full-grid estimate, interpolated at the probes, stays within u0 / sqrt(n)
    of the interpolated truth."""
    probes = np.linspace(TWO_PI / num_probes, TWO_PI, num_probes)
    cov = specmodel.limit_covariance(model, alpha, probes)
    sims = gsim.sample_limit_process(cov, seed + verify._STREAM_CALIBRATION, draws)
    u0 = float(np.quantile(np.max(np.abs(sims), axis=0), 1.0 - delta))
    num_points = estimate.default_grid_points(n)
    truth = specmodel.frac_truth_profile(model, alpha, num_points)
    truth = np.interp(probes, truth.grid, truth.values)
    hits = 0
    for r in range(reps):
        path = gsim.sample_path(model, n, seed, stream=verify._STREAM_COVERAGE + r)
        est = estimate.frac_estimate(estimate.periodogram(path, num_points), alpha)
        hits += np.max(np.abs(np.interp(probes, est.grid, est.values) - truth)) <= u0 / np.sqrt(n)
    return u0, hits / reps


def test_csv_table_formats_ints_and_floats():
    rows = [(3, 0.1, np.float64(2.0) / 3.0), (4, 1.0, "censored")]
    text = csv_table("n,x,y", rows)
    assert text == "n,x,y\n3,0.10000000000000001,0.66666666666666663\n4,1,censored\n"
    text = csv_table("n,x,y", rows[1:], comments=["fracspec 0.1.0", "seed = 3"])
    assert text == "# fracspec 0.1.0\n# seed = 3\nn,x,y\n4,1,censored\n"
    # a config value written over several lines keeps every line a comment
    text = csv_table("n,x,y", [], comments=["config mc.n_list = 64\n128", ""])
    assert text == "# config mc.n_list = 64\n# 128\n# \nn,x,y\n"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, reps",
    [("tail_envelope.py", "300"), ("variance_convergence.py", "100"), ("band_coverage.py", "20")],
)
def test_script_runs(script, reps):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--n", "128", "--reps", reps],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"n_list": (128, 0)}, "n_list must be at least 1, got 0"),
        ({"n_list": ()}, "n_list must hold at least one size"),
        # each used to be truncated: (64,), 2 and 3; nan failed in int()
        ({"n_list": (64.7,), "replications": 2.5, "seed": 3.9},
         "n_list must be a whole number, got 64.7"),
        *[
            ({key: (bad,) if key == "n_list" else bad},
             f"{key} must be a whole number, got {bad!r}")
            for key in ("n_list", "replications", "seed", "grid_points")
            for bad in _NOT_WHOLE
        ],
        ({"tail_u_grid": (1.0, 0.0)}, "tail_u_grid entries must be positive"),
        ({"tail_u_grid": (-1.0,)}, "tail_u_grid entries must be positive"),
        # each table would hold two n = 64 blocks that cannot be told apart
        ({"n_list": (64, 128, 64)}, "n_list must not repeat a size, got 64 twice or more"),
    ],
    ids=["n-list-entry-0", "n-list-empty", "truncated-sizes",
         *[f"{key}-{bad}" for key in ("n_list", "replications", "seed", "grid_points")
           for bad in _NOT_WHOLE],
         "tail-u-0", "tail-u-negative", "n-list-repeat"],
)
def test_mc_config_refusals_name_the_bad_input(kw, message):
    with pytest.raises(DomainError) as exc:
        _config(**kw)
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "kw, message",
    [
        # n = 4,000,000 built its Fejer mean before sample_path refused n
        ({"n": specmodel.MAX_N + 1}, "n must be at most 1048576, got 1048577"),
        ({"n": 0}, "n must be at least 1, got 0"),
        ({"n": 64.5}, "n must be a whole number, got 64.5"),
        ({"num_points": 1}, "num_points must be at least 2, got 1"),
        ({"num_points": 65538}, "num_points must be at most 65537, got 65538"),
    ],
    ids=["n-above-max", "n-0", "n-64.5", "points-1", "points-above-max"],
)
def test_expected_estimate_refuses_sizes_before_any_work(monkeypatch, kw, message):
    calls = []
    monkeypatch.setattr(specmodel, "expected_periodogram", lambda *a: calls.append(a))
    plan = dict(n=64, num_points=257) | kw
    with pytest.raises(DomainError) as exc:
        verify.expected_estimate(AR1, alpha=0.25, **plan)
    assert str(exc.value) == message
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda alpha: estimate.frac_estimate(GridFunction(np.ones(17)), alpha),
        lambda alpha: specmodel.frac_truth_profile(AR1, alpha, 17),
        lambda alpha: specmodel.theta_point(AR1, alpha, 1.0, 1.0),
        lambda alpha: specmodel.limit_covariance(AR1, alpha, [1.0]),
        lambda alpha: _config(alpha=alpha),
        lambda alpha: verify.confidence_band(CONST, alpha, 64, 0.05, 1000, seed=0),
        # 0.5 gave a mean curve; -0.1 and nan named frac_integral's order
        lambda alpha: verify.expected_estimate(AR1, 64, alpha, 257),
    ],
    ids=["frac_estimate", "frac_truth_profile", "theta_point", "limit_covariance", "McConfig",
         "confidence_band", "expected_estimate"],
)
@pytest.mark.parametrize("alpha", [0.5, -0.1, math.nan])
def test_every_caller_refuses_alpha_alike(call, alpha):
    with pytest.raises(DomainError) as exc:
        call(alpha)
    assert str(exc.value) == f"alpha must lie in [0, 1/2), got {alpha!r}"


def test_alpha_domain_is_written_once():
    # fracops._check_alpha is the one check
    src = Path(verify.__file__).parent
    owners = [m.name for m in sorted(src.glob("*.py")) if "must lie in [0, 1/2)" in m.read_text()]
    assert owners == ["fracops.py"]
