"""Command-line front end: INI-configured experiments with deterministic,
atomically written CSV/JSON outputs.

Exit codes: 0 success, 1 domain/config error, 2 numerical error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from configparser import ConfigParser, Error as IniError
from pathlib import Path
from typing import Collection, Iterable

# the linear algebra is small, and an idle BLAS worker spins beside the FFT loop and
# multiplies with the --threads pool workers, which inherit this environment
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__, specmodel, verify
from .errors import ConfigError, DomainError, NumericalError
from .estimate import MAX_GRID_POINTS, default_grid_points, frac_estimate, periodogram
from .grid import TWO_PI, csv_table
from .gsim import SamplePath, sample_path
from .specmodel import SpectralModel, limit_covariance

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_NUMERICAL = 2
_EXIT_IO = 3

#: recognized keys, per section, per verb
_SECTION_KEYS = {
    "model": {"kind", "c", "rho", "grid_csv_path"},
    "simulate": {"n", "count", "mean", "seed"},
    "estimate": {"path_csv", "alpha", "num_points"},
    "truth": {"alpha", "num_points", "probe_lambdas"},
    "mc": {
        "alpha", "n_list", "replications", "probe_lambdas", "seed",
        "tail_u_grid", "holder_delta", "delta_confidence", "grid_points",
    },
    "confidence": {
        "alpha", "n", "delta", "calibration_draws", "replications",
        "num_probes", "seed",
    },
    "fejer": {"n_list"},
}
_VERB_SECTIONS = {
    "simulate": ("model", "simulate"),
    "estimate": ("estimate",),
    "truth": ("model", "truth"),
    "mc": ("model", "mc"),
    "confidence": ("model", "confidence"),
    "fejer": ("model", "fejer"),
}


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit status 2, which is reserved for numerical errors
    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(_EXIT_DOMAIN)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fracspec {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    helps = {
        "simulate": "draw stationary Gaussian sample paths and write them as CSV",
        "estimate": "compute periodogram and fractional estimate for stored paths",
        "truth": "write exact spectral function, fractional derivative, and limit covariance",
        "mc": "run the Monte Carlo verification plan and write the report bundle",
        "confidence": "calibrate a sup-norm confidence band and measure its coverage",
        "fejer": "tabulate the smoothing bias of the expected periodogram over n",
    }
    for verb, help_text in helps.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="INI experiment config")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--force", action="store_true", help="allow overwriting existing files")
        p.add_argument(
            "--threads", type=int, default=None,
            help="worker processes for mc (0 = auto; default: FRACSPEC_THREADS or 1)",
        )
    return parser


def _resolve_threads(flag: int | None) -> int:
    if flag is None:
        env = os.environ.get("FRACSPEC_THREADS", "").strip()
        if not env:
            return 1
        try:
            flag = int(env)
        except ValueError as exc:
            raise ConfigError(f"FRACSPEC_THREADS must be an integer, got {env!r}") from exc
    if flag < 0:
        raise ConfigError(f"--threads must be >= 0, got {flag}")
    return flag if flag > 0 else (os.cpu_count() or 1)


def _read_config(path: Path, verb: str) -> dict[str, dict[str, str]]:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (IniError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    allowed = _VERB_SECTIONS[verb]
    unknown_sections = set(sections) - set(allowed)
    if unknown_sections:
        raise ConfigError(
            f"unknown config section(s) for verb {verb!r}: {sorted(unknown_sections)}"
        )
    for name, mapping in sections.items():
        bad = set(mapping) - _SECTION_KEYS[name]
        if bad:
            raise ConfigError(f"unknown key(s) in [{name}]: {sorted(bad)}")
    return sections


def _get(section: dict, key: str, cast, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from exc


def _grid_points(section: dict, key: str, default: int) -> int:
    num_points = _get(section, key, int, default)
    if not 0 <= num_points <= MAX_GRID_POINTS:
        raise ConfigError(f"{key} must be between 0 and {MAX_GRID_POINTS}, got {num_points}")
    return num_points


def _size(section: dict, key: str, default: int | None = None) -> int:
    size = _get(section, key, int, default)
    if size < 1:
        raise ConfigError(f"{key} must be at least 1, got {size}")
    return size


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _model_from(sections: dict, config_dir: Path) -> SpectralModel:
    if "model" not in sections:
        raise ConfigError("config is missing required section [model]")
    return SpectralModel.from_mapping(sections["model"], base_dir=config_dir)


def build_mc_config(
    sections: dict, config_dir: Path, seed_override: int | None
) -> verify.McConfig:
    mc = sections.get("mc", {})
    grid_points = _grid_points(mc, "grid_points", 0) or None
    model = _model_from(sections, config_dir)
    seed = seed_override if seed_override is not None else _get(mc, "seed", int, 0)
    return verify.McConfig(
        model=model,
        alpha=_get(mc, "alpha", float),
        n_list=_get(mc, "n_list", _int_list),
        replications=_get(mc, "replications", int),
        probe_lambdas=_get(mc, "probe_lambdas", _float_list, (math.pi / 2, math.pi)),
        seed=seed,
        tail_u_grid=_get(mc, "tail_u_grid", _float_list, verify.DEFAULT_TAIL_GRID),
        holder_delta=_get(mc, "holder_delta", float, 0.0) or None,
        delta_confidence=_get(mc, "delta_confidence", float, 0.05),
        grid_points=grid_points,
    )


def _write_bundle(out: Path, names: Collection[str], texts: Iterable[str], force: bool) -> None:
    """Write one verb's output files, the k-th text (which may be produced
    lazily) to the k-th name; without force, any existing target is refused
    before the first write, so a refused run leaves the directory as it was."""
    if not force:
        for name in names:
            if (out / name).exists():
                raise FileExistsError(f"{out / name} exists; pass --force to overwrite")
    for name, text in zip(names, texts):
        _write_atomic(out / name, text)


def _write_atomic(path: Path, text: str) -> None:
    """Write via a temp file plus atomic rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _header(sections: dict, seed: int | None, grid_sizes: dict) -> list[str]:
    """Comment lines identifying version, resolved config, seeds, grid sizes."""
    lines = [f"fracspec {__version__}"]
    for name in sorted(sections):
        for key in sorted(sections[name]):
            lines.append(f"config {name}.{key} = {sections[name][key]}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    for label, size in grid_sizes.items():
        lines.append(f"{label} = {size}")
    return lines


def _cmd_simulate(args, sections: dict, config_dir: Path) -> None:
    sim = sections.get("simulate", {})
    n = _size(sim, "n")
    count = _size(sim, "count", 1)
    model = _model_from(sections, config_dir)
    mean = _get(sim, "mean", float, 0.0)
    seed = args.seed if args.seed is not None else _get(sim, "seed", int, 0)
    header = _header(sections, seed, {"n": n})
    texts = (
        sample_path(model, n, seed, mean=mean, stream=k).to_csv_text(
            comments=header + [f"stream = {k}"]
        )
        for k in range(count)
    )
    _write_bundle(args.out, [f"path_{k:03d}.csv" for k in range(count)], texts, args.force)


def _cmd_estimate(args, sections: dict, config_dir: Path) -> None:
    est = sections.get("estimate", {})
    alpha = _get(est, "alpha", float)
    num_points = _grid_points(est, "num_points", 0)
    path = SamplePath.from_csv(config_dir / _get(est, "path_csv", str))
    num_points = num_points or default_grid_points(path.n)
    j = periodogram(path, num_points)
    fa = frac_estimate(j, alpha)
    header = _header(sections, path.seed, {"n": path.n, "grid_points": num_points})
    with_alpha = header + [f"alpha = {alpha:g}"]
    files = {
        "periodogram.csv": j.to_csv_text(comments=header),
        "estimate.csv": fa.to_csv_text(comments=with_alpha),
    }
    _write_bundle(args.out, files.keys(), files.values(), args.force)


def _cmd_truth(args, sections: dict, config_dir: Path) -> None:
    tr = sections.get("truth", {})
    num_points = _grid_points(tr, "num_points", 4097)
    model = _model_from(sections, config_dir)
    alpha = _get(tr, "alpha", float)
    probes = _get(tr, "probe_lambdas", _float_list, (math.pi / 2, math.pi, TWO_PI))
    header = _header(sections, None, {"grid_points": num_points})
    spectral = specmodel.spectral_profile(model, num_points)
    truth = specmodel.frac_truth_profile(model, alpha, num_points)
    cov = limit_covariance(model, alpha, np.array(probes))
    with_alpha = header + [f"alpha = {alpha:g}"]
    files = {
        "spectral_function.csv": spectral.to_csv_text(comments=header),
        "frac_derivative.csv": truth.to_csv_text(comments=with_alpha),
        "theta.csv": cov.to_csv_text(comments=with_alpha),
    }
    _write_bundle(args.out, files.keys(), files.values(), args.force)


def _cmd_mc(args, sections: dict, config_dir: Path) -> None:
    config = build_mc_config(sections, config_dir, args.seed)
    threads = _resolve_threads(args.threads)
    report = verify.run_monte_carlo(config, threads=threads)
    grid_sizes = {
        "grid_points": config.grid_points or "auto",
        "n_list": " ".join(str(n) for n in config.n_list),
    }
    header = _header(sections, config.seed, grid_sizes)
    files = {"report.json": report.to_json_text() + "\n", **report.csv_tables(header)}
    _write_bundle(args.out, files.keys(), files.values(), args.force)


def _cmd_confidence(args, sections: dict, config_dir: Path) -> None:
    cf = sections.get("confidence", {})
    num_probes = _get(cf, "num_probes", int, verify.BAND_PROBES)
    if not 1 <= num_probes <= verify.MAX_PROBES:
        raise ConfigError(
            f"num_probes must be between 1 and {verify.MAX_PROBES}, got {num_probes}"
        )
    n = _size(cf, "n")
    reps = _size(cf, "replications", 400)
    model = _model_from(sections, config_dir)
    alpha = _get(cf, "alpha", float)
    delta = _get(cf, "delta", float, 0.05)
    draws = _get(cf, "calibration_draws", int, 5000)
    seed = args.seed if args.seed is not None else _get(cf, "seed", int, 0)
    u0, coverage = verify.confidence_band(
        model, alpha, n, delta, draws, seed, replications=reps, num_probes=num_probes
    )
    header = _header(sections, seed, {"n": n, "num_probes": num_probes})
    table = csv_table("n,delta,u0,coverage", [(n, delta, u0, coverage)], comments=header)
    _write_bundle(args.out, ["confidence.csv"], [table], args.force)


def _cmd_fejer(args, sections: dict, config_dir: Path) -> None:
    fj = sections.get("fejer", {})
    n_list = _get(fj, "n_list", _int_list)
    if not n_list:
        raise ConfigError("fejer n_list must contain at least one n")
    if any(n < 1 for n in n_list):
        raise ConfigError(f"n_list must hold positive integers, got {n_list!r}")
    model = _model_from(sections, config_dir)
    header = _header(sections, None, {"n_list": " ".join(map(str, n_list))})
    rows = [(n, *verify._fejer_bias(model, n)) for n in n_list]
    table = csv_table("n,sup_err,bound", rows, comments=header)
    _write_bundle(args.out, ["fejer.csv"], [table], args.force)


_DISPATCH = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "truth": _cmd_truth,
    "mc": _cmd_mc,
    "confidence": _cmd_confidence,
    "fejer": _cmd_fejer,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sections = _read_config(args.config, args.verb)
        args.out.mkdir(parents=True, exist_ok=True)
        _DISPATCH[args.verb](args, sections, args.config.parent.resolve())
    except (DomainError, ConfigError) as exc:
        print(f"fracspec: error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except NumericalError as exc:
        print(f"fracspec: numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except OSError as exc:
        print(f"fracspec: i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return _EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
