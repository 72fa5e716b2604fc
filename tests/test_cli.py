import ast
import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracspec import GridFunction, __version__, estimate, gsim, specmodel, verify
from fracspec.cli import main

CONST_C = 1.0 / (2.0 * math.pi)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def mc_ini(tmp_path):
    return _write(
        tmp_path / "mc.ini",
        f"[model]\nkind = constant\nc = {CONST_C!r}\n\n"
        "[mc]\nalpha = 0.25\nn_list = 128\nreplications = 10\nseed = 2\n",
    )


@pytest.fixture
def sim_ini(tmp_path):
    return _write(
        tmp_path / "sim.ini",
        "[model]\nkind = ar1\nrho = 0.5\n\n[simulate]\nn = 64\ncount = 2\nseed = 7\n",
    )


def _run(*argv) -> int:
    return main(list(argv))


def _refuse_constant(token: str):
    raise AssertionError(f"bare {token} token in JSON")


class TestPlumbing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            _run("--version")
        assert e.value.code == 0
        assert f"fracspec {__version__}" in capsys.readouterr().out

    def test_unknown_verb_exits_domain(self, capsys):
        with pytest.raises(SystemExit) as e:
            _run("frobnicate", "--config", "x", "--out", "y")
        assert e.value.code == 1

    def test_missing_config_file(self, tmp_path, capsys):
        rc = _run("mc", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path))
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_named_in_error(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "bad.ini", "[model]\nkind = constant\nc = 1\nmystery = 2\n"
        )
        rc = _run("truth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    def test_zero_replications_names_key(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "r0.ini",
            "[model]\nkind = constant\nc = 1\n\n"
            "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 0\n",
        )
        rc = _run("mc", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "replications" in capsys.readouterr().err

    def test_alpha_out_of_range_cites_interval(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "a.ini",
            "[model]\nkind = constant\nc = 1\n\n"
            "[mc]\nalpha = 0.6\nn_list = 64\nreplications = 5\n",
        )
        rc = _run("mc", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert rc == 1
        assert "1/2" in capsys.readouterr().err

    def test_fejer_rejects_num_points(self, tmp_path, capsys):
        # the fejer grid is ceil(2 pi n) + 2 points; a num_points key is not read
        cfg = _write(
            tmp_path / "f.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n[fejer]\nn_list = 64\nnum_points = 7\n",
        )
        assert _run("fejer", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert "unknown key(s) in [fejer]" in capsys.readouterr().err

    def test_malformed_config_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", "alpha = 0.25\n[truth]\nnum_points = 17\n")
        assert _run("truth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert f"fracspec: error: malformed config {cfg}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "verb, body, section",
        [
            ("truth", "[model]\nkind = ar1\nrho = 0.5\n\n[truth]\nalpha = 0.25\n\n[mc]\n", "mc"),
            ("estimate", "[model]\nkind = ar1\nrho = 0.5\n\n[estimate]\nalpha = 0.25\n", "model"),
        ],
        ids=["mc-in-truth", "model-in-estimate"],
    )
    def test_section_the_verb_does_not_read_is_config_error(
        self, tmp_path, capsys, verb, body, section
    ):
        cfg = _write(tmp_path / "s.ini", body)
        out = tmp_path / "o"
        out.mkdir()
        _write(out / "keep.csv", "keep\n")
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"fracspec: error: unknown config section(s) for verb {verb!r}: [{section!r}]\n"
        )
        assert [p.name for p in out.iterdir()] == ["keep.csv"]
        assert (out / "keep.csv").read_text() == "keep\n"

    def test_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit) as e:
            _run("--help")
        assert e.value.code == 0
        words = " ".join(capsys.readouterr().out.split())
        for verb, help_text in [
            ("simulate", "draw stationary Gaussian sample paths and write them as CSV"),
            ("estimate", "compute periodogram and fractional estimate for stored paths"),
            (
                "truth",
                "write exact spectral function, fractional derivative, and limit covariance",
            ),
            ("mc", "run the Monte Carlo verification plan and write the report bundle"),
            ("confidence", "calibrate a sup-norm confidence band and measure its coverage"),
            ("fejer", "tabulate the smoothing bias of the expected periodogram over n"),
        ]:
            assert f" {verb} {help_text} " in words, verb

    @pytest.mark.parametrize(
        "verb, body",
        [
            ("estimate", "[estimate]\npath_csv = path.csv\nalpha = 0.25\nnum_points = 65538\n"),
            ("truth", "[model]\nkind = constant\nc = 1\n\n"
                      "[truth]\nalpha = 0.25\nnum_points = 65538\n"),
            ("mc", "[model]\nkind = constant\nc = 1\n\n"
                   "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 2\ngrid_points = 65538\n"),
        ],
        ids=["estimate", "truth", "mc"],
    )
    @pytest.mark.parametrize("size", [65538, -5])
    def test_grid_outside_bounds_is_config_error(self, tmp_path, capsys, verb, body, size):
        _write(tmp_path / "path.csv", "# seed = 0\n# model_id = x\neta\n0.5\n-0.25\n")
        cfg = _write(tmp_path / "g.ini", body.replace("65538", str(size)))
        out = tmp_path / "o"
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 1
        bound = "at most 65537" if size > 0 else "at least 2"
        assert f"points must be {bound}, got {size}\n" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("num_probes", [0, -3, 5000])
    def test_num_probes_outside_bounds_is_config_error(self, tmp_path, capsys, num_probes):
        # 0 used to divide by zero, -3 to fail in numpy, 5000 to run for tens of minutes
        cfg = _write(
            tmp_path / "c.ini",
            "[model]\nkind = constant\nc = 1\n\n"
            f"[confidence]\nalpha = 0.25\nn = 64\nnum_probes = {num_probes}\n",
        )
        out = tmp_path / "o"
        assert _run("confidence", "--config", str(cfg), "--out", str(out)) == 1
        bound = "at most 1024" if num_probes > 0 else "at least 1"
        assert f"num_probes must be {bound}, got {num_probes}\n" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "verb, section, present",
        [
            ("truth", "[truth]\nalpha = 0.25\n", "theta.csv"),
            ("mc", "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 2\n", "report.json"),
        ],
        ids=["truth", "mc"],
    )
    @pytest.mark.parametrize(
        "probes, message",
        [
            ("1.0 7.0", "probe_lambdas must lie in (0, 2*pi], got (1.0, 7.0)"),
            ("", "probe_lambdas must hold between 1 and 1024 values, got 0"),
            (" ".join(f"{x:.17g}" for x in np.linspace(0.005, 2.0 * math.pi, 1025)),
             "probe_lambdas must hold between 1 and 1024 values, got 1025"),
        ],
        ids=["range", "empty", "too-many"],
    )
    @pytest.mark.parametrize(
        "model", ["kind = constant\nc = 1\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["constant", "unreadable-model"],
    )
    def test_probe_lambdas_outside_bounds_is_config_error(
        self, tmp_path, capsys, verb, section, present, probes, message, model
    ):
        # a probe above 2 pi used to be refused only after both truth profiles
        # were computed, naming no key, and an empty list named probe_grid; the
        # count bound keeps the P (P + 1) / 2 probe pairs of the covariance small
        cfg = _write(
            tmp_path / "p.ini", f"[model]\n{model}\n{section}probe_lambdas = {probes}\n"
        )
        out = tmp_path / "o"
        out.mkdir()
        _write(out / present, "keep\n")
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"fracspec: error: {message}\n"
        assert [p.name for p in out.iterdir()] == [present]
        assert (out / present).read_text() == "keep\n"

    @pytest.mark.parametrize(
        "num_probes, draws", [(64, 10**12), (1024, 2**25 // 1024 + 1)], ids=["64", "1024"]
    )
    @pytest.mark.parametrize(
        "model", ["kind = constant\nc = 1\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["constant", "unreadable-model"],
    )
    def test_calibration_draws_above_bound_is_config_error(
        self, tmp_path, capsys, num_probes, draws, model
    ):
        # 10^12 draws used to end in a numpy _ArrayMemoryError traceback for a
        # 64 x 10^12 block of limit-process draws
        cfg = _write(
            tmp_path / "c.ini",
            f"[model]\n{model}\n[confidence]\nalpha = 0.25\nn = 64\n"
            f"num_probes = {num_probes}\ncalibration_draws = {draws}\n",
        )
        out = tmp_path / "o"
        out.mkdir()
        _write(out / "confidence.csv", "keep\n")
        assert _run("confidence", "--config", str(cfg), "--out", str(out)) == 1
        most = 2**25 // num_probes
        assert capsys.readouterr().err == (
            f"fracspec: error: calibration_draws must be at most {most} for {num_probes} "
            f"probes, got {draws}\n"
        )
        assert (out / "confidence.csv").read_text() == "keep\n"

    def test_largest_default_calibration_is_accepted(self, tmp_path, monkeypatch):
        # 1024 probes x the default 5000 draws stay within the bound
        calls = []
        monkeypatch.setattr(
            verify, "confidence_band", lambda *a, **k: calls.append(k) or (1.0, 1.0)
        )
        cfg = _write(
            tmp_path / "c.ini",
            "[model]\nkind = constant\nc = 1\n\n[confidence]\nalpha = 0.25\nn = 64\n"
            "num_probes = 1024\n",
        )
        assert _run("confidence", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert [k["num_probes"] for k in calls] == [1024]

    @pytest.mark.parametrize(
        "verb, section, key, value",
        [
            ("confidence", "[confidence]\nalpha = 0.25\nn = 64\n", "replications", 0),
            ("confidence", "[confidence]\nalpha = 0.25\nn = 64\n", "replications", -3),
            ("confidence", "[confidence]\nalpha = 0.25\n", "n", 0),
            ("simulate", "[simulate]\nn = 64\n", "count", -2),
            ("simulate", "[simulate]\n", "n", 0),
        ],
        ids=["replications-0", "replications-neg", "confidence-n-0", "count-neg", "simulate-n-0"],
    )
    @pytest.mark.parametrize(
        "model", ["kind = constant\nc = 1\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["constant", "unreadable-model"],
    )
    def test_size_below_one_is_config_error(
        self, tmp_path, capsys, verb, section, key, value, model
    ):
        # these used to divide by zero, write a coverage of -0, write nothing or exit 2;
        # the model whose grid CSV is missing shows the check runs before the model is read
        cfg = _write(tmp_path / "s.ini", f"[model]\n{model}\n{section}{key} = {value}\n")
        out = tmp_path / "o"
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 1
        assert f"{key} must be at least 1, got {value}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("replications", [1, 0, -3])
    @pytest.mark.parametrize(
        "model", ["kind = constant\nc = 1\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["constant", "unreadable-model"],
    )
    def test_mc_replications_below_two_is_config_error(
        self, tmp_path, capsys, replications, model
    ):
        # 1 used to exit 0 after three RuntimeWarnings, with NaN in cov.csv and
        # bare NaN tokens in report.json; the check runs before the model is read
        cfg = _write(
            tmp_path / "m.ini",
            f"[model]\n{model}\n[mc]\nalpha = 0.25\nn_list = 64\n"
            f"replications = {replications}\n",
        )
        out = tmp_path / "o"
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 1
        assert f"replications must be at least 2, got {replications}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("count", [2, 1024])
    @pytest.mark.parametrize(
        "model", ["kind = constant\nc = 1\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["constant", "unreadable-model"],
    )
    def test_mc_replications_above_bound_is_config_error(self, tmp_path, capsys, count, model):
        # every replication keeps count + 8 floats until the run ends, and an
        # unbounded count failed only after the whole run; the check runs
        # before the model is read
        probes = " ".join(f"{x:.17g}" for x in np.linspace(0.005, 2.0 * math.pi, count))
        most = 2**25 // (count + 8)
        cfg = _write(
            tmp_path / "m.ini",
            f"[model]\n{model}\n[mc]\nalpha = 0.25\nn_list = 64\n"
            f"probe_lambdas = {probes}\nreplications = {most + 1}\n",
        )
        out = tmp_path / "o"
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"fracspec: error: replications must be at most {most} for {count} "
            f"probe_lambdas, got {most + 1}\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("count", [2, 1024])
    def test_mc_replications_at_bound_are_accepted(self, tmp_path, monkeypatch, count):
        # the plan at the bound reaches the run; an empty report stands in for it
        planned = []

        def run(model, config, threads=1):
            planned.append(config.replications)
            return verify.McReport(config.seed, model.model_id, config.alpha, config.replications)

        monkeypatch.setattr(verify, "run_monte_carlo", run)
        probes = " ".join(f"{x:.17g}" for x in np.linspace(0.005, 2.0 * math.pi, count))
        most = 2**25 // (count + 8)
        cfg = _write(
            tmp_path / "m.ini",
            "[model]\nkind = constant\nc = 1\n\n[mc]\nalpha = 0.25\nn_list = 64\n"
            f"probe_lambdas = {probes}\nreplications = {most}\n",
        )
        assert _run("mc", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert planned == [most]

    @pytest.mark.parametrize("flag", [(), ("--seed", "5")], ids=["config-seed", "seed-flag"])
    @pytest.mark.parametrize(
        "verb, section, key",
        [
            ("simulate", "[simulate]\nn = 64\n", "seed"),
            ("simulate", "[simulate]\nn = 64\n", "mean"),
            ("mc", "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 10\n", "seed"),
            ("confidence", "[confidence]\nalpha = 0.25\nn = 64\n", "seed"),
        ],
        ids=["simulate", "simulate-mean", "mc", "confidence"],
    )
    def test_bad_seed_or_mean_is_config_error_before_the_model(
        self, tmp_path, capsys, verb, section, key, flag
    ):
        # simulate and confidence read these after the model, so the missing
        # grid CSV exited 3; under --seed no verb read the seed, and simulate
        # and mc exited 0 with "seed = abc" in every header
        cfg = _write(
            tmp_path / "s.ini",
            f"[model]\nkind = custom_grid\ngrid_csv_path = missing.csv\n\n{section}{key} = abc\n",
        )
        out = tmp_path / "o"
        assert _run(verb, "--config", str(cfg), "--out", str(out), *flag) == 1
        assert capsys.readouterr().err == f"fracspec: error: invalid value for {key!r}: 'abc'\n"
        assert list(out.iterdir()) == []

    def test_mc_two_replications_run(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "m.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n"
            "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 2\n",
        )
        out = tmp_path / "o"
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 0, capsys.readouterr().err
        assert "nan" not in (out / "report.json").read_text().lower()
        # a bare NaN or Infinity token is not JSON
        json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)

    @pytest.mark.parametrize(
        "verb, section",
        [
            ("truth", "[truth]\nalpha = 0.25\n"),
            ("confidence",
             "[confidence]\nalpha = 0.25\nn = 64\nreplications = 3\ncalibration_draws = 1000\n"),
            ("mc", "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 2\n"),
        ],
        ids=["truth", "confidence", "mc"],
    )
    @pytest.mark.parametrize(
        "c, shown", [("1e300", "inf"), ("1e-300", "0")], ids=["1e300", "1e-300"]
    )
    def test_density_squared_out_of_range_exits_numerical(
        self, tmp_path, capsys, verb, section, c, shown
    ):
        # f^2 overflows to inf, or underflows to 0: truth wrote an all-inf
        # theta.csv, confidence a u0 of nan or of 3.4e-07, and mc bare NaN tokens
        cfg = _write(tmp_path / "c.ini", f"[model]\nkind = constant\nc = {c}\n\n{section}")
        out = tmp_path / "o"
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fracspec: numerical error: limit covariance {shown} with ")
        assert " at (lam, mu)=(" in err
        assert list(out.iterdir()) == []

    def test_mc_alpha_near_half_runs_without_holder_delta(self, tmp_path, capsys):
        # the default holder_delta was 0.01, not below 1/2 - alpha, and exited 1
        cfg = _write(
            tmp_path / "m.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n"
            "[mc]\nalpha = 0.495\nn_list = 64\nreplications = 2\n",
        )
        out = tmp_path / "o"
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 0, capsys.readouterr().err

    @pytest.mark.parametrize("n_list", ["0", "-3 8"])
    @pytest.mark.parametrize(
        "model", ["kind = ar1\nrho = 0.5\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["ar1", "unreadable-model"],
    )
    def test_fejer_n_list_below_one_is_config_error(self, tmp_path, capsys, n_list, model):
        # 0 used to name an internal function, -3 to fail in np.linspace
        cfg = _write(tmp_path / "f.ini", f"[model]\n{model}\n[fejer]\nn_list = {n_list}\n")
        out = tmp_path / "o"
        assert _run("fejer", "--config", str(cfg), "--out", str(out)) == 1
        assert f"n_list must be at least 1, got {n_list.split()[0]}\n" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "model, message",
        [
            ("kind = constant\nc = abc\n", "invalid value for 'c': 'abc'"),
            ("kind = ar1\nrho = x\n", "invalid value for 'rho': 'x'"),
            ("kind = constant\n", "missing required key 'c'"),
            ("kind = ar1\n", "missing required key 'rho'"),
            ("kind = custom_grid\n", "missing required key 'grid_csv_path'"),
            ("c = 1\n", "missing required key 'kind'"),
            ("kind = spline\nc = 1\n", "unknown model kind 'spline'"),
        ],
        ids=["c-abc", "rho-x", "no-c", "no-rho", "no-grid_csv_path", "no-kind", "unknown-kind"],
    )
    def test_bad_model_section_is_config_error(self, tmp_path, capsys, model, message):
        # a value that is not a number used to escape as a ValueError traceback
        cfg = _write(
            tmp_path / "t.ini", f"[model]\n{model}\n[truth]\nalpha = 0.25\nnum_points = 17\n"
        )
        out = tmp_path / "o"
        out.mkdir()
        _write(out / "theta.csv", "keep\n")
        assert _run("truth", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"fracspec: error: {message}\n"
        assert [p.name for p in out.iterdir()] == ["theta.csv"]
        assert (out / "theta.csv").read_text() == "keep\n"

    def test_missing_model_section_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path / "t.ini", "[truth]\nalpha = 0.25\nnum_points = 17\n")
        out = tmp_path / "o"
        assert _run("truth", "--config", str(cfg), "--out", str(out)) == 1
        assert "missing required section [model]" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "line, key",
        [
            ("alpha = 0.6", "alpha"),
            ("alpha = 0.25\ndelta_confidence = 1.5", "delta_confidence"),
            ("alpha = 0.25\nprobe_lambdas = 3.0 1.0", "probe_lambdas"),
            ("alpha = 0\nholder_delta = -0.2", "holder_delta"),
            ("alpha = 0.25\nholder_delta = 0", "holder_delta"),
        ],
        ids=[
            "alpha", "delta_confidence", "unsorted-probes", "holder-delta-at-alpha-0",
            "holder-delta-0",
        ],
    )
    def test_mc_plan_is_checked_before_the_model(self, tmp_path, capsys, line, key):
        # with a grid CSV that is missing these used to exit 3, an i/o error
        cfg = _write(
            tmp_path / "m.ini",
            "[model]\nkind = custom_grid\ngrid_csv_path = missing.csv\n\n"
            f"[mc]\n{line}\nn_list = 64\nreplications = 2\n",
        )
        out = tmp_path / "o"
        out.mkdir()
        _write(out / "report.json", "keep\n")
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"fracspec: error: {key} must")
        assert [p.name for p in out.iterdir()] == ["report.json"]
        assert (out / "report.json").read_text() == "keep\n"

    @pytest.mark.parametrize("grid, shown", [("1.0 nan", "(1.0, nan)"), ("inf", "(inf,)")])
    def test_mc_tail_u_grid_not_finite_is_config_error(self, tmp_path, capsys, grid, shown):
        # a nan threshold exited 0, with a bare NaN token in report.json and a
        # "64,nan,0,censored" row in tails.csv; the missing grid CSV shows the
        # check runs before the model is read
        cfg = _write(
            tmp_path / "m.ini",
            "[model]\nkind = custom_grid\ngrid_csv_path = missing.csv\n\n"
            f"[mc]\nalpha = 0.25\nn_list = 64\nreplications = 2\ntail_u_grid = {grid}\n",
        )
        out = tmp_path / "o"
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"fracspec: error: tail_u_grid entries must be finite, got {shown}\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "verb, body, present, compute",
        [
            ("mc", None, "cov.csv", (verify, "run_monte_carlo")),
            ("truth", "[model]\nkind = constant\nc = 1\n\n[truth]\nalpha = 0.25\n"
                      "num_points = 257\n", "theta.csv", (specmodel, "spectral_profile")),
            ("estimate", "[estimate]\npath_csv = path.csv\nalpha = 0.25\nnum_points = 17\n",
             "estimate.csv", (estimate, "periodogram")),
            ("simulate", None, "path_001.csv", (gsim, "sample_path")),
            ("confidence", "[model]\nkind = constant\nc = 1\n\n[confidence]\nalpha = 0.25\n"
                           "n = 64\n", "confidence.csv", (verify, "confidence_band")),
            ("fejer", "[model]\nkind = ar1\nrho = 0.5\n\n[fejer]\nn_list = 64\n",
             "fejer.csv", (specmodel, "_fejer_bias")),
        ],
        ids=["mc", "truth", "estimate", "simulate", "confidence", "fejer"],
    )
    def test_existing_target_leaves_directory_unchanged(
        self, tmp_path, capsys, monkeypatch, mc_ini, sim_ini, verb, body, present, compute
    ):
        # the one file present is the verb's last; the others used to be
        # written before the refusal, and the verb's first computation used
        # to run before it
        calls = []
        owner, name = compute
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or real(*a, **k))
        _write(tmp_path / "path.csv", "# seed = 0\n# model_id = x\neta\n0.5\n-0.25\n")
        cfg = {"mc": mc_ini, "simulate": sim_ini}.get(verb) or _write(tmp_path / "v.ini", body)
        out = tmp_path / "o"
        out.mkdir()
        _write(out / present, "keep\n")
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 3
        assert f"{present} exists; pass --force" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [present]
        assert (out / present).read_text() == "keep\n"
        assert calls == []

    @pytest.mark.parametrize(
        "verb, body, key, present",
        [
            ("estimate", "[estimate]\npath_csv = path.csv\nalpha = 0.6\n", "alpha",
             "estimate.csv"),
            ("estimate", "[estimate]\npath_csv = path.csv\nalpha = 0.25\nnum_points = 1\n",
             "num_points", "estimate.csv"),
            ("truth", "[model]\nkind = constant\nc = 1\n\n[truth]\nalpha = 0.6\n", "alpha",
             "theta.csv"),
            ("truth", "[model]\nkind = constant\nc = 1\n\n[truth]\nalpha = 0.25\n"
                      "num_points = 0\n", "num_points", "theta.csv"),
            ("mc", "[model]\nkind = constant\nc = 1\n\n[mc]\nalpha = 0.25\nn_list = 64\n"
                   "replications = 2\ngrid_points = 1\n", "grid_points", "report.json"),
            ("mc", "[model]\nkind = constant\nc = 1\n\n[mc]\nalpha = 0.25\nn_list = 64\n"
                   "replications = 2\ngrid_points = 65\n", "grid_points", "report.json"),
            # exit 1, not the model's i/o error 3: the plan is checked before the model is read
            ("mc", "[model]\nkind = custom_grid\ngrid_csv_path = missing.csv\n\n[mc]\n"
                   "alpha = 0.25\nn_list = 64\nreplications = 2\ngrid_points = 65\n",
             "grid_points", "report.json"),
            ("confidence", "[model]\nkind = constant\nc = 1\n\n[confidence]\nalpha = 0.6\n"
                           "n = 64\n", "alpha", "confidence.csv"),
            ("confidence", "[model]\nkind = constant\nc = 1\n\n[confidence]\nalpha = 0.25\n"
                           "n = 64\ndelta = 1.5\n", "delta", "confidence.csv"),
            ("confidence", "[model]\nkind = constant\nc = 1\n\n[confidence]\nalpha = 0.25\n"
                           "n = 64\ncalibration_draws = 10\n", "calibration_draws",
             "confidence.csv"),
        ],
        ids=[
            "estimate-alpha", "estimate-grid-1", "truth-alpha", "truth-grid-0", "mc-grid-1",
            "mc-grid-65", "mc-grid-65-unreadable-model", "confidence-alpha", "delta",
            "calibration_draws",
        ],
    )
    def test_bad_value_is_reported_before_existing_target(
        self, tmp_path, capsys, verb, body, key, present
    ):
        # the texts are computed only after the refusal, so these values are
        # checked when the config is read; the grids of 0 and 1 points used to
        # fail inside the computation, naming no key
        _write(tmp_path / "path.csv", "# seed = 0\n# model_id = x\neta\n0.5\n-0.25\n")
        cfg = _write(tmp_path / "v.ini", body)
        out = tmp_path / "o"
        out.mkdir()
        _write(out / present, "keep\n")
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith(f"fracspec: error: {key} must")
        assert [p.name for p in out.iterdir()] == [present]

    def test_failed_write_leaves_directory_unchanged(self, tmp_path, capsys, monkeypatch):
        # the third of truth's three files fails to be written (a full disk);
        # the first two used to land in --out
        cfg = _write(
            tmp_path / "t.ini",
            "[model]\nkind = constant\nc = 1\n\n[truth]\nalpha = 0.25\nnum_points = 257\n",
        )
        out = tmp_path / "o"
        out.mkdir()
        _write(out / "theta.csv", "keep\n")
        opened = []
        real_fdopen = os.fdopen

        def fdopen(fd, *args, **kwargs):
            opened.append(fd)
            if len(opened) == 3:
                os.close(fd)
                raise OSError(28, "No space left on device")
            return real_fdopen(fd, *args, **kwargs)

        monkeypatch.setattr(os, "fdopen", fdopen)
        rc = _run("truth", "--config", str(cfg), "--out", str(out), "--force")
        monkeypatch.undo()
        assert rc == 3
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["theta.csv"]
        assert (out / "theta.csv").read_text() == "keep\n"

    @pytest.mark.parametrize(
        "verb, section, key, present",
        [
            ("simulate", "[simulate]\nn = {}\n", "n", "path_000.csv"),
            ("confidence", "[confidence]\nalpha = 0.25\nn = {}\n", "n", "confidence.csv"),
            ("mc", "[mc]\nalpha = 0.25\nreplications = 2\nn_list = 64 {}\n", "n_list",
             "report.json"),
            ("fejer", "[fejer]\nn_list = 64 {}\n", "n_list", "fejer.csv"),
        ],
        ids=["simulate-n", "confidence-n", "mc-n_list", "fejer-n_list"],
    )
    @pytest.mark.parametrize("size", [2**20 + 1, 10**9])
    @pytest.mark.parametrize(
        "model", ["kind = ar1\nrho = 0.5\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["ar1", "unreadable-model"],
    )
    def test_path_length_above_max_n_is_config_error(
        self, tmp_path, capsys, verb, section, key, present, size, model
    ):
        # these used to allocate until a MemoryError; the model whose grid CSV
        # is missing shows the check runs before the model is read. The target
        # present keeps a run that skipped the check from computing anything
        cfg = _write(tmp_path / "n.ini", f"[model]\n{model}\n{section.format(size)}")
        out = tmp_path / "o"
        out.mkdir()
        _write(out / present, "keep\n")
        assert _run(verb, "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"{key} must" in err and f"{2**20}, got" in err and str(size) in err
        assert [p.name for p in out.iterdir()] == [present]

    @pytest.mark.parametrize(
        "model", ["kind = ar1\nrho = 0.5\n", "kind = custom_grid\ngrid_csv_path = missing.csv\n"],
        ids=["ar1", "unreadable-model"],
    )
    def test_simulate_count_above_bound_is_config_error(
        self, tmp_path, capsys, monkeypatch, model
    ):
        # the list of every file name is built before any path is drawn, so an
        # unbounded count could exhaust memory there
        drawn = []
        monkeypatch.setattr(gsim, "sample_path", lambda *a, **kw: drawn.append(a))
        cfg = _write(tmp_path / "c.ini", f"[model]\n{model}\n[simulate]\nn = 64\ncount = 65537\n")
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == "fracspec: error: count must be at most 65536, got 65537\n"
        assert drawn == [] and list(out.iterdir()) == []

    def test_grid_at_ceiling_is_accepted(self, tmp_path):
        _write(tmp_path / "path.csv", "# seed = 0\n# model_id = x\neta\n0.5\n-0.25\n")
        cfg = _write(
            tmp_path / "g.ini",
            "[estimate]\npath_csv = path.csv\nalpha = 0.25\nnum_points = 65537\n",
        )
        assert _run("estimate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0


class TestSimulate:
    def test_writes_paths_deterministically(self, sim_ini, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert _run("simulate", "--config", str(sim_ini), "--out", str(out1)) == 0
        assert _run("simulate", "--config", str(sim_ini), "--out", str(out2)) == 0
        for k in range(2):
            a = (out1 / f"path_{k:03d}.csv").read_bytes()
            b = (out2 / f"path_{k:03d}.csv").read_bytes()
            assert a == b

    def test_refuses_overwrite_without_force(self, sim_ini, tmp_path, capsys):
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(sim_ini), "--out", str(out)) == 0
        assert _run("simulate", "--config", str(sim_ini), "--out", str(out)) == 3
        assert (
            _run("simulate", "--config", str(sim_ini), "--out", str(out), "--force") == 0
        )

    def test_indefinite_embedding_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a tabulated spike whose first circulant embedding is indefinite at n = 4,
        # with no padding doubling allowed
        lam = np.linspace(0.0, 2.0 * math.pi, 17)
        spike = 0.001 + np.exp(-((np.minimum(lam, 2.0 * math.pi - lam) / 0.5) ** 2))
        _write(tmp_path / "spike.csv", GridFunction(spike, periodic=True).to_csv_text())
        cfg = _write(
            tmp_path / "s.ini",
            "[model]\nkind = custom_grid\ngrid_csv_path = spike.csv\n\n[simulate]\nn = 4\n",
        )
        monkeypatch.setattr(gsim, "MAX_DOUBLINGS", 0)
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 2
        assert "circulant embedding stayed indefinite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("mean", ["nan", "inf", "-inf"])
    def test_non_finite_mean_is_config_error(self, tmp_path, capsys, monkeypatch, mean):
        # these used to reach SamplePath and exit 2 as a numerical error;
        # the check runs before any draw
        monkeypatch.setattr(gsim, "sample_path", None)
        cfg = _write(
            tmp_path / "s.ini",
            f"[model]\nkind = ar1\nrho = 0.5\n\n[simulate]\nn = 64\nmean = {mean}\n",
        )
        out = tmp_path / "o"
        assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 1
        assert f"mean must be finite, got {float(mean)!r}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_seed_override_changes_output(self, sim_ini, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        _run("simulate", "--config", str(sim_ini), "--out", str(out1))
        _run("simulate", "--config", str(sim_ini), "--out", str(out2), "--seed", "99")
        a = (out1 / "path_000.csv").read_bytes()
        b = (out2 / "path_000.csv").read_bytes()
        assert a != b


class TestEstimateVerb:
    def test_round_trip(self, sim_ini, tmp_path):
        paths_dir = tmp_path / "paths"
        _run("simulate", "--config", str(sim_ini), "--out", str(paths_dir))
        est_ini = _write(
            tmp_path / "est.ini",
            "[estimate]\n"
            f"path_csv = {paths_dir / 'path_000.csv'}\n"
            "alpha = 0.25\nnum_points = 257\n",
        )
        out = tmp_path / "est_out"
        assert _run("estimate", "--config", str(est_ini), "--out", str(out)) == 0
        assert (out / "periodogram.csv").exists()
        body = (out / "estimate.csv").read_text()
        assert body.startswith("# fracspec")
        assert "alpha = 0.25" in body

    def test_simulated_mean_is_removed(self, tmp_path):
        # the periodogram of a path simulated with a mean must not see that mean
        estimates = []
        for mean in ("2.5", "0"):
            sim_ini = _write(
                tmp_path / f"sim_{mean}.ini",
                "[model]\nkind = ar1\nrho = 0.5\n\n"
                f"[simulate]\nn = 256\nmean = {mean}\nseed = 0\n",
            )
            paths_dir = tmp_path / f"paths_{mean}"
            assert _run("simulate", "--config", str(sim_ini), "--out", str(paths_dir)) == 0
            est_ini = _write(
                tmp_path / f"est_{mean}.ini",
                f"[estimate]\npath_csv = {paths_dir / 'path_000.csv'}\nalpha = 0.25\n",
            )
            out = tmp_path / f"est_out_{mean}"
            assert _run("estimate", "--config", str(est_ini), "--out", str(out)) == 0
            estimates.append(GridFunction.from_csv(out / "estimate.csv").values)
        np.testing.assert_allclose(estimates[0], estimates[1], rtol=0, atol=1e-9)


    def test_overflowing_periodogram_is_a_numerical_error(self, tmp_path, capsys, recwarn):
        # it printed three overflow RuntimeWarnings, then exited 1 naming no input
        sim_ini = _write(
            tmp_path / "sim.ini", "[model]\nkind = constant\nc = 1e306\n\n[simulate]\nn = 4096\n"
        )
        assert _run("simulate", "--config", str(sim_ini), "--out", str(tmp_path / "paths")) == 0
        est_ini = _write(
            tmp_path / "est.ini",
            f"[estimate]\npath_csv = {tmp_path / 'paths' / 'path_000.csv'}\nalpha = 0.25\n",
        )
        out = tmp_path / "est_out"
        assert _run("estimate", "--config", str(est_ini), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == ("fracspec: numerical error: periodogram of n = 4096 overflows "
                       "on the 16385-point grid\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert list(out.iterdir()) == []


class TestMalformedInput:
    """A bad CSV given as input is a domain error (exit 1), not a traceback."""

    def _estimate(self, tmp_path, path_text: str) -> int:
        path_csv = _write(tmp_path / "path.csv", path_text)
        est_ini = _write(
            tmp_path / "est.ini", f"[estimate]\npath_csv = {path_csv}\nalpha = 0.25\n"
        )
        return _run("estimate", "--config", str(est_ini), "--out", str(tmp_path / "o"))

    def test_path_csv_with_non_numeric_row(self, tmp_path, capsys):
        text = "# seed = 0\n# model_id = ar1(rho=0.5)\neta\n0.5\nabc\n1.5\n"
        assert self._estimate(tmp_path, text) == 1
        assert "'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_path_csv_with_non_finite_row(self, tmp_path, capsys, value):
        # these used to exit 2, a numerical error, after the path was read
        text = f"# seed = 0\n# model_id = ar1(rho=0.5)\neta\n0.5\n{value}\n1.5\n"
        assert self._estimate(tmp_path, text) == 1
        assert f"path.csv: bad CSV row: '{value}'" in capsys.readouterr().err

    def test_path_csv_with_two_fields_in_a_row(self, tmp_path, capsys):
        text = "# seed = 0\n# model_id = ar1(rho=0.5)\neta\n0.5,1\n1.5\n"
        assert self._estimate(tmp_path, text) == 1
        assert "path.csv: bad CSV row: '0.5,1'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_path_csv_with_non_finite_added_mean(self, tmp_path, capsys, recwarn, value):
        # these used to reach the FFT and fail as "grid values must be finite"
        text = f"# seed = 0\n# model_id = ar1(rho=0.5)\n# added_mean = {value}\neta\n0.5\n1.5\n"
        assert self._estimate(tmp_path, text) == 1
        err = capsys.readouterr().err
        assert "bad header value: added_mean" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_path_csv_without_seed_line(self, tmp_path, capsys):
        text = "# model_id = ar1(rho=0.5)\neta\n0.5\n-0.25\n1.5\n"
        assert self._estimate(tmp_path, text) == 1
        assert "seed" in capsys.readouterr().err

    def test_path_csv_without_values(self, tmp_path, capsys, recwarn):
        text = "# seed = 0\n# model_id = ar1(rho=0.5)\neta\n"
        assert self._estimate(tmp_path, text) == 1
        assert "empty" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_custom_grid_csv_with_non_numeric_value(self, tmp_path, capsys):
        grid_csv = _write(
            tmp_path / "grid.csv", "lambda,value\n0,1\n3.14,x\n6.283185307179586,1\n"
        )
        cfg = _write(
            tmp_path / "t.ini",
            f"[model]\nkind = custom_grid\ngrid_csv_path = {grid_csv}\n\n"
            "[truth]\nalpha = 0.25\nnum_points = 65\n",
        )
        assert _run("truth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert "'3.14,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_custom_grid_csv_with_non_finite_value(self, tmp_path, capsys, value):
        # refused by the row, like 'abc': the grid's own finite check names no row
        row = f"3.141592653589793,{value}"
        grid_csv = _write(tmp_path / "grid.csv", f"lambda,value\n0,1\n{row}\n6.283185307179586,1\n")
        cfg = _write(
            tmp_path / "t.ini",
            f"[model]\nkind = custom_grid\ngrid_csv_path = {grid_csv}\n\n"
            "[truth]\nalpha = 0.25\nnum_points = 65\n",
        )
        assert _run("truth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert f"bad CSV row: '{row}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1\n3.141592653589793\n6.283185307179586,1\n",
             "bad CSV row: '3.141592653589793'"),
            ("0,1\n3,2\n6.283185307179586,1\n", "bad CSV row: '3,2' (lambda must be "),
            ("0,1\n3.141592653589793,2\n6.283185307179586,3\n",
             "periodic grid endpoints differ: 1 vs 3"),
        ],
        ids=["one-field", "off-grid", "endpoints-differ"],
    )
    def test_custom_grid_csv_refusal_names_the_file(self, tmp_path, capsys, rows, message):
        # the uniform-grid and endpoint refusals used to name no file
        grid_csv = _write(tmp_path / "grid.csv", f"lambda,value\n{rows}")
        cfg = _write(
            tmp_path / "t.ini",
            f"[model]\nkind = custom_grid\ngrid_csv_path = {grid_csv}\n\n"
            "[truth]\nalpha = 0.25\nnum_points = 65\n",
        )
        assert _run("truth", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert f"fracspec: error: {grid_csv}: {message}" in capsys.readouterr().err


class TestTruthVerb:
    def test_constant_frac_derivative_value(self, tmp_path):
        cfg = _write(
            tmp_path / "t.ini",
            f"[model]\nkind = constant\nc = {CONST_C!r}\n\n"
            "[truth]\nalpha = 0.25\nnum_points = 4097\n",
        )
        out = tmp_path / "o"
        assert _run("truth", "--config", str(cfg), "--out", str(out)) == 0
        lam, val = np.loadtxt(
            out / "frac_derivative.csv", delimiter=",", comments="#",
            skiprows=9, unpack=True,
        )
        assert np.interp(math.pi, lam, val) == pytest.approx(0.40864, abs=5e-4)
        assert (out / "spectral_function.csv").exists()
        assert (out / "theta.csv").exists()

    def test_config_value_over_two_lines_reads_back(self, tmp_path):
        # an INI value may go on over indented lines; the second line of such a
        # value used to land in every header without its "# ", and
        # GridFunction.from_csv then refused the file with "bad CSV row: '2.0'"
        body = "[model]\nkind = ar1\nrho = 0.5\n\n[truth]\nalpha = 0.25\nnum_points = 257\n"
        outs = []
        for name, probes in (("one", "1.0 2.0"), ("two", "1.0\n    2.0")):
            cfg = _write(tmp_path / f"{name}.ini", f"{body}probe_lambdas = {probes}\n")
            outs.append(tmp_path / name)
            assert _run("truth", "--config", str(cfg), "--out", str(outs[-1])) == 0
        theta = [(out / "theta.csv").read_text().splitlines() for out in outs]
        assert "# config truth.probe_lambdas = 1.0" in theta[1]
        assert "# 2.0" in theta[1]
        assert [ln for ln in theta[0] if ln[:1] != "#"] == [ln for ln in theta[1] if ln[:1] != "#"]
        for name in ("spectral_function.csv", "frac_derivative.csv"):
            one, two = (GridFunction.from_csv(out / name) for out in outs)
            assert np.array_equal(one.values, two.values), name


    def test_custom_grid_ar1(self, tmp_path):
        # the AR(1) density tabulated on 4097 points; the limit covariance at
        # (pi/2, pi/2) used to fail its quadrature error check and exit 2
        lam = np.linspace(0.0, 2.0 * math.pi, 4097)[:2049]
        half = 0.75 / (1.25 - np.cos(lam)) / (2.0 * math.pi)
        rows = zip(np.linspace(0.0, 2.0 * math.pi, 4097), np.concatenate((half, half[-2::-1])))
        text = "lambda,value\n" + "".join(f"{a:.17g},{v:.17g}\n" for a, v in rows)
        grid_csv = _write(tmp_path / "ar1.csv", text)
        cfg = _write(
            tmp_path / "t.ini",
            f"[model]\nkind = custom_grid\ngrid_csv_path = {grid_csv}\n\n[truth]\nalpha = 0.25\n",
        )
        out = tmp_path / "o"
        assert _run("truth", "--config", str(cfg), "--out", str(out)) == 0
        lines = [ln for ln in (out / "theta.csv").read_text().splitlines() if ln[:1] != "#"]
        theta = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert theta.shape == (3, 3)
        assert np.all(np.linalg.eigvalsh(theta) > 0)


class TestMcVerb:
    def test_byte_identical_reruns(self, mc_ini, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert _run("mc", "--config", str(mc_ini), "--out", str(out1)) == 0
        assert _run("mc", "--config", str(mc_ini), "--out", str(out2)) == 0
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_headers_record_version_and_seed(self, mc_ini, tmp_path):
        out = tmp_path / "m"
        _run("mc", "--config", str(mc_ini), "--out", str(out))
        head = (out / "cov.csv").read_text().splitlines()
        assert head[0] == f"# fracspec {__version__}"
        assert any(line.startswith("# seed = 2") for line in head)

    def test_bundle_file_set(self, mc_ini, tmp_path):
        out = tmp_path / "m"
        assert _run("mc", "--config", str(mc_ini), "--out", str(out)) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "report.json", "bias.csv", "cov.csv", "normality.csv",
            "tails.csv", "holder.csv", "confidence.csv",
        }
        for name in sorted(names - {"report.json"}):
            assert (out / name).read_text().startswith(f"# fracspec {__version__}\n"), name

    def test_outputs_identical_across_threads(self, tmp_path, monkeypatch):
        # 130 replications are 3 blocks of at most 64, so 2 threads open a real pool
        cfg = _write(
            tmp_path / "mc.ini",
            f"[model]\nkind = constant\nc = {CONST_C!r}\n\n"
            "[mc]\nalpha = 0.25\nn_list = 128\nreplications = 130\nseed = 2\n",
        )
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert _run("mc", "--config", str(cfg), "--out", str(out1), "--threads", "1") == 0
        assert _run("mc", "--config", str(cfg), "--out", str(out2), "--threads", "2") == 0
        assert sizes == [2]
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_threads_env_fallback(self, mc_ini, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSPEC_THREADS", "not-an-int")
        rc = _run("mc", "--config", str(mc_ini), "--out", str(tmp_path / "m"))
        assert rc == 1


    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_threads_above_the_bound_exit_1_before_the_model(
        self, source, tmp_path, monkeypatch, capsys, pool_sizes
    ):
        # the grid CSV is missing, which would exit 3 once the model is read
        cfg = _write(
            tmp_path / "mc.ini",
            f"[model]\nkind = custom_grid\ngrid_csv_path = {tmp_path / 'none.csv'}\n\n"
            "[mc]\nalpha = 0.25\nn_list = 128\nreplications = 130\n",
        )
        argv = ["mc", "--config", str(cfg), "--out", str(tmp_path / "m")]
        if source == "flag":
            argv += ["--threads", "100000"]
        else:
            monkeypatch.setenv("FRACSPEC_THREADS", "100000")
        assert _run(*argv) == 1
        name = "--threads" if source == "flag" else "FRACSPEC_THREADS"
        assert f"{name} must be between 0 and 256, got 100000" in capsys.readouterr().err
        assert pool_sizes == []


class TestFejerVerb:
    def test_bias_table(self, tmp_path):
        cfg = _write(
            tmp_path / "f.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n[fejer]\nn_list = 64 256\n",
        )
        out = tmp_path / "o"
        assert _run("fejer", "--config", str(cfg), "--out", str(out)) == 0
        rows = [
            line for line in (out / "fejer.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("n,")
        ]
        data = [tuple(map(float, r.split(","))) for r in rows]
        assert data[0][1] > data[1][1]  # sup error shrinks with n
        for (_, sup_err, bound) in data:
            assert sup_err <= bound


    def test_overflowing_fejer_mean_is_a_numerical_error(self, tmp_path, capsys, recwarn):
        # it warned "invalid value encountered in subtract", then exited 1 naming no input
        cfg = _write(
            tmp_path / "f.ini", "[model]\nkind = constant\nc = 1e308\n\n[fejer]\nn_list = 64\n"
        )
        out = tmp_path / "o"
        assert _run("fejer", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == ("fracspec: numerical error: Fejer mean of n = 64 overflows "
                       "on the 405-point grid\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert list(out.iterdir()) == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fracspec", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert __version__ in proc.stdout


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env_without_blas_threads(**preset: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    return {**env, **preset}


class TestImportGraph:
    """scipy is no runtime dependency: no module under src/ imports it, and no
    verb loads it (the tests keep it as an oracle). The CLI runs BLAS on one
    thread unless the caller chose otherwise, and the package itself loads no
    numpy. Each check runs in a fresh interpreter."""

    @staticmethod
    def _python(code: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env
        )

    def test_package_import_loads_no_numpy(self):
        proc = self._python(
            "import sys, fracspec\nprint('numpy' in sys.modules)\n"
            "from fracspec import GridFunction, TWO_PI\nprint(GridFunction.__name__, TWO_PI)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "GridFunction", repr(2 * math.pi)]

    def test_cli_import_runs_one_thread(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads")
        proc = self._python(
            # the CLI loads numpy only in a verb; the pin must act before that load
            "import os, fracspec.cli, numpy\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task')))",
            env=_env_without_blas_threads(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]

    def test_cli_keeps_preset_blas_threads(self):
        proc = self._python(
            "import os, fracspec.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
            env=_env_without_blas_threads(OPENBLAS_NUM_THREADS="2"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"

    _SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))

    @pytest.mark.parametrize("script", _SCRIPTS, ids=lambda p: p.stem)
    def test_script_runs_one_thread(self, script):
        # each script pins BLAS as the CLI does, before its imports load numpy
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads")
        proc = self._python(
            f"import os, runpy, sys\nrunpy.run_path({str(script)!r}, run_name='x')\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), "
            "len(os.listdir('/proc/self/task')))",
            env=_env_without_blas_threads(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "1", "1"]

    @pytest.mark.parametrize("script", _SCRIPTS, ids=lambda p: p.stem)
    def test_script_keeps_preset_blas_threads(self, script):
        proc = self._python(
            f"import os, runpy\nrunpy.run_path({str(script)!r}, run_name='x')\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])",
            env=_env_without_blas_threads(OPENBLAS_NUM_THREADS="2"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"

    def test_mc_outputs_identical_across_blas_threads(self, tmp_path):
        cfg = _write(
            tmp_path / "mc.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n"
            "[mc]\nalpha = 0.25\nn_list = 128\nreplications = 10\nseed = 2\n",
        )
        outs = [tmp_path / "b1", tmp_path / "b2"]
        for out, threads in zip(outs, ("1", "2")):
            proc = subprocess.run(
                [sys.executable, "-m", "fracspec", "mc", "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, timeout=300,
                env=_env_without_blas_threads(OPENBLAS_NUM_THREADS=threads),
            )
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_cli_import_loads_no_numpy(self):
        proc = self._python("import sys, fracspec.cli\nprint('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            (["--version"], 0),
            (["frobnicate", "--config", "x", "--out", "y"], 1),
            (["mc", "--out", "y"], 1),
            (["mc", "--config", "{tmp}/missing.ini", "--out", "{tmp}/o"], 1),
            (["truth", "--config", "{tmp}/unknown_key.ini", "--out", "{tmp}/o"], 1),
            (["truth", "--config", "{tmp}/malformed.ini", "--out", "{tmp}/o"], 1),
        ],
        ids=["help", "version", "unknown-verb", "no-config", "missing-config", "unknown-key",
             "malformed-config"],
    )
    def test_exit_without_a_verb_loads_no_numpy(self, tmp_path, argv, code):
        _write(tmp_path / "unknown_key.ini", "[model]\nkind = ar1\nrho = 0.5\nsigma = 1\n")
        _write(tmp_path / "malformed.ini", "kind = ar1\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        proc = self._python(
            "import sys\nfrom fracspec.cli import main\n"
            f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
            "print(code, 'numpy' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == [str(code), "False"], proc.stderr

    def test_simulate_and_estimate_load_no_verify(self, tmp_path):
        # verify is the harness of mc and confidence only
        configs = Path(__file__).resolve().parents[1] / "configs"
        est_ini = _write(
            tmp_path / "est.ini",
            f"[estimate]\npath_csv = {tmp_path / 'sim' / 'path_000.csv'}\nalpha = 0.25\n",
        )
        sim_ini = configs / "simulate_ar1.ini"
        sim = ["simulate", "--config", str(sim_ini), "--out", str(tmp_path / "sim")]
        est = ["estimate", "--config", str(est_ini), "--out", str(tmp_path / "est")]
        proc = self._python(
            "import sys\nfrom fracspec.cli import main\n"
            f"print(main({sim!r}), 'fracspec.verify' in sys.modules)\n"
            f"print(main({est!r}), 'fracspec.verify' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "0", "False"], proc.stderr

    @pytest.mark.parametrize(
        "verb, config, absent",
        [
            ("truth", "truth_constant.ini",
             ["fracspec.verify", "fracspec.gsim", "fracspec.estimate"]),
            ("fejer", "fejer_ar1.ini", ["fracspec.verify", "fracspec.estimate"]),
            ("simulate", "simulate_ar1.ini", ["fracspec.estimate"]),
        ],
        ids=["truth", "fejer", "simulate"],
    )
    def test_verb_loads_only_the_modules_it_runs(self, tmp_path, verb, config, absent):
        # truth and fejer compute fixed properties of the model, all in specmodel
        configs = Path(__file__).resolve().parents[1] / "configs"
        argv = [verb, "--config", str(configs / config), "--out", str(tmp_path / "o")]
        proc = self._python(
            "import sys\nfrom fracspec.cli import main\n"
            f"print(main({argv!r}), [m for m in {absent!r} if m in sys.modules])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []", proc.stderr

    def test_cli_import_loads_no_process_pool(self):
        proc = self._python(
            "import sys, fracspec.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('concurrent.futures', 'multiprocessing'))))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_scipy(self):
        proc = self._python(
            "import sys, fracspec.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_verbs_run_with_scipy_blocked(self, tmp_path):
        configs = Path(__file__).resolve().parents[1] / "configs"
        est_ini = _write(
            tmp_path / "est.ini",
            f"[estimate]\npath_csv = {tmp_path / 'sim' / 'path_000.csv'}\nalpha = 0.25\n",
        )
        conf_ini = _write(
            tmp_path / "conf.ini",
            f"[model]\nkind = constant\nc = {CONST_C!r}\n\n[confidence]\nalpha = 0.25\n"
            "n = 128\ncalibration_draws = 1000\nreplications = 10\nnum_probes = 16\n",
        )
        mc_ini = _write(
            tmp_path / "mc.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n[mc]\nalpha = 0.25\nn_list = 128\n"
            "replications = 20\n",
        )
        runs = [
            [verb, "--config", str(cfg), "--out", str(tmp_path / out)]
            for verb, cfg, out in (
                ("simulate", configs / "simulate_ar1.ini", "sim"),
                ("estimate", est_ini, "est"),
                ("fejer", configs / "fejer_ar1.ini", "fej"),
                ("truth", configs / "truth_constant.ini", "tru"),
                ("truth", configs / "truth_custom.ini", "tru_custom"),
                ("confidence", conf_ini, "conf"),
                ("mc", mc_ini, "mc"),
            )
        ]
        # a None entry in sys.modules makes every `import scipy...` raise ImportError
        proc = self._python(
            "import sys\nsys.modules['scipy'] = None\nfrom fracspec.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0]", proc.stderr

    @pytest.mark.parametrize("verb", ["mc", "confidence"])
    def test_verb_loads_no_numpy_ma(self, tmp_path, verb):
        # np.quantile imports numpy.ma through np.unique, about 0.7 MB resident
        section = {
            "mc": "[model]\nkind = ar1\nrho = 0.5\n\n[mc]\nalpha = 0.25\nn_list = 128\n"
            "replications = 10\n",
            "confidence": f"[model]\nkind = constant\nc = {CONST_C!r}\n\n[confidence]\n"
            "alpha = 0.25\nn = 128\ncalibration_draws = 1000\nreplications = 10\n"
            "num_probes = 16\n",
        }[verb]
        cfg = _write(tmp_path / f"{verb}.ini", section)
        argv = [verb, "--config", str(cfg), "--out", str(tmp_path / verb)]
        proc = self._python(
            "import sys\nfrom fracspec.cli import main\n"
            f"print(main({argv!r}), 'numpy.ma' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 False", proc.stderr

    def test_mc_loads_no_scipy(self, tmp_path):
        # the normality test used to import scipy.stats, half of mc's wall time
        config = Path(__file__).resolve().parents[1] / "configs" / "mc_ar1.ini"
        argv = ["mc", "--config", str(config), "--out", str(tmp_path / "mc")]
        proc = self._python(
            "import sys\nfrom fracspec.cli import main\n"
            f"print(main({argv!r}), sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []", proc.stderr

    @staticmethod
    def _imported_names(module: Path) -> list[str]:
        names = []
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names += [f"{node.module}.{alias.name}" for alias in node.names]
        return names

    def test_no_module_imports_scipy(self):
        # scipy is a test extra only: the package needs numpy alone at run time
        src = Path(__file__).resolve().parents[1] / "src" / "fracspec"
        for module in sorted(src.glob("*.py")):
            names = self._imported_names(module)
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), module.name

    def test_no_module_imports_scipy_integrate(self):
        # quad is only a test oracle now: the limit covariance has its own rule
        src = Path(__file__).resolve().parents[1] / "src" / "fracspec"
        for module in sorted(src.glob("*.py")):
            names = self._imported_names(module)
            assert not any(n.startswith("scipy.integrate") for n in names), module.name
