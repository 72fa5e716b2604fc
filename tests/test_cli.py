import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracspec import GridFunction, __version__, cli, specmodel, verify
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
        assert f"between 0 and 65537, got {size}" in capsys.readouterr().err
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
        assert f"num_probes must be between 1 and 1024, got {num_probes}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

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

    def test_mc_two_replications_run(self, tmp_path, capsys):
        cfg = _write(
            tmp_path / "m.ini",
            "[model]\nkind = ar1\nrho = 0.5\n\n"
            "[mc]\nalpha = 0.25\nn_list = 64\nreplications = 2\n",
        )
        out = tmp_path / "o"
        assert _run("mc", "--config", str(cfg), "--out", str(out)) == 0, capsys.readouterr().err
        assert "nan" not in (out / "report.json").read_text().lower()

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
        assert "n_list must hold positive integers" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "verb, body, present, compute",
        [
            ("mc", None, "cov.csv", (verify, "run_monte_carlo")),
            ("truth", "[model]\nkind = constant\nc = 1\n\n[truth]\nalpha = 0.25\n"
                      "num_points = 257\n", "theta.csv", (specmodel, "spectral_profile")),
            ("estimate", "[estimate]\npath_csv = path.csv\nalpha = 0.25\nnum_points = 17\n",
             "estimate.csv", (cli, "periodogram")),
            ("simulate", None, "path_001.csv", (cli, "sample_path")),
            ("confidence", "[model]\nkind = constant\nc = 1\n\n[confidence]\nalpha = 0.25\n"
                           "n = 64\n", "confidence.csv", (verify, "confidence_band")),
            ("fejer", "[model]\nkind = ar1\nrho = 0.5\n\n[fejer]\nn_list = 64\n",
             "fejer.csv", (verify, "_fejer_bias")),
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
            "confidence-alpha", "delta", "calibration_draws",
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

    def test_outputs_identical_across_threads(self, mc_ini, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert _run("mc", "--config", str(mc_ini), "--out", str(out1), "--threads", "1") == 0
        assert _run("mc", "--config", str(mc_ini), "--out", str(out2), "--threads", "2") == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_threads_env_fallback(self, mc_ini, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSPEC_THREADS", "not-an-int")
        rc = _run("mc", "--config", str(mc_ini), "--out", str(tmp_path / "m"))
        assert rc == 1


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
            "import os, fracspec.cli\n"
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
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0]", proc.stderr

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
