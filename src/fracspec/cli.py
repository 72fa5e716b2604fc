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
from typing import Iterable, Iterator, Sequence

# the linear algebra is small, and an idle BLAS worker spins beside the FFT loop and
# multiplies with the --threads pool workers, which inherit this environment
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np

from . import __version__, specmodel, verify
from .errors import ConfigError, DomainError, NumericalError
from .estimate import MAX_GRID_POINTS, MAX_N, default_grid_points, frac_estimate, periodogram
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
    # 0 asks for the automatic grid of a verb whose default is 0; a grid has 2 points or more
    if num_points == 1 or (num_points == 0 and default):
        raise ConfigError(f"{key} must be at least 2, got {num_points}")
    return num_points


def _size(
    section: dict, key: str, default: int | None = None, most: float = math.inf, least: int = 1
) -> int:
    size = _get(section, key, int, default)
    if size < least:
        raise ConfigError(f"{key} must be at least {least}, got {size}")
    if size > most:
        raise ConfigError(f"{key} must be at most {most}, got {size}")
    return size


def _alpha(section: dict) -> float:
    alpha = _get(section, "alpha", float)
    if not 0.0 <= alpha < 0.5:
        raise ConfigError(f"alpha must lie in [0, 1/2), got {alpha!r}")
    return alpha


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _n_list(section: dict) -> tuple[int, ...]:
    n_list = _get(section, "n_list", _int_list)
    if not n_list or not all(1 <= n <= MAX_N for n in n_list):
        raise ConfigError(f"n_list must hold positive integers up to {MAX_N}, got {n_list!r}")
    return n_list


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
    n_list = _n_list(mc)
    # the sample covariance of the probes needs two replications
    replications = _size(mc, "replications", least=2)
    model = _model_from(sections, config_dir)
    seed = seed_override if seed_override is not None else _get(mc, "seed", int, 0)
    return verify.McConfig(
        model=model,
        alpha=_get(mc, "alpha", float),
        n_list=n_list,
        replications=replications,
        probe_lambdas=_get(mc, "probe_lambdas", _float_list, (math.pi / 2, math.pi)),
        seed=seed,
        tail_u_grid=_get(mc, "tail_u_grid", _float_list, verify.DEFAULT_TAIL_GRID),
        holder_delta=_get(mc, "holder_delta", float, 0.0) or None,
        delta_confidence=_get(mc, "delta_confidence", float, 0.05),
        grid_points=grid_points,
    )


def _write_bundle(out: Path, names: Sequence[str], texts: Iterable[str], force: bool) -> None:
    """Write the k-th text to the k-th name in out. Without force, an existing
    target is refused before the first text is pulled, so lazy texts are not
    computed for a refused run. The texts are staged in temp files, renamed in
    only when all are written, and removed on any failure."""
    if not force:
        for name in names:
            if (out / name).exists():
                raise FileExistsError(f"{out / name} exists; pass --force to overwrite")
    staged = []
    try:
        for name, text in zip(names, texts):
            fd, tmp = tempfile.mkstemp(dir=out, prefix=f".{name}.", suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        for name, tmp in zip(names, staged):
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in staged:
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


def _cmd_simulate(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    sim = sections.get("simulate", {})
    n = _size(sim, "n", most=MAX_N)
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
    return [f"path_{k:03d}.csv" for k in range(count)], texts


def _cmd_estimate(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    est = sections.get("estimate", {})
    alpha = _alpha(est)
    num_points = _grid_points(est, "num_points", 0)
    path = SamplePath.from_csv(config_dir / _get(est, "path_csv", str))
    num_points = num_points or default_grid_points(path.n)
    header = _header(sections, path.seed, {"n": path.n, "grid_points": num_points})

    def texts() -> Iterator[str]:
        j = periodogram(path, num_points)
        yield j.to_csv_text(comments=header)
        yield frac_estimate(j, alpha).to_csv_text(comments=header + [f"alpha = {alpha:g}"])

    return ["periodogram.csv", "estimate.csv"], texts()


def _cmd_truth(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    tr = sections.get("truth", {})
    num_points = _grid_points(tr, "num_points", 4097)
    model = _model_from(sections, config_dir)
    alpha = _alpha(tr)
    probes = _get(tr, "probe_lambdas", _float_list, (math.pi / 2, math.pi, TWO_PI))
    header = _header(sections, None, {"grid_points": num_points})
    with_alpha = header + [f"alpha = {alpha:g}"]

    def texts() -> Iterator[str]:
        yield specmodel.spectral_profile(model, num_points).to_csv_text(comments=header)
        truth = specmodel.frac_truth_profile(model, alpha, num_points)
        yield truth.to_csv_text(comments=with_alpha)
        yield limit_covariance(model, alpha, np.array(probes)).to_csv_text(comments=with_alpha)

    return ["spectral_function.csv", "frac_derivative.csv", "theta.csv"], texts()


def _cmd_mc(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    config = build_mc_config(sections, config_dir, args.seed)
    threads = _resolve_threads(args.threads)
    grid_sizes = {
        "grid_points": config.grid_points or "auto",
        "n_list": " ".join(str(n) for n in config.n_list),
    }
    header = _header(sections, config.seed, grid_sizes)

    def texts() -> Iterator[str]:
        report = verify.run_monte_carlo(config, threads=threads)
        yield report.to_json_text() + "\n"
        yield from report.csv_tables(header).values()

    return ["report.json", *(name for name, _ in verify.MC_TABLES)], texts()


def _cmd_confidence(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    cf = sections.get("confidence", {})
    num_probes = _get(cf, "num_probes", int, verify.BAND_PROBES)
    if not 1 <= num_probes <= verify.MAX_PROBES:
        raise ConfigError(
            f"num_probes must be between 1 and {verify.MAX_PROBES}, got {num_probes}"
        )
    n = _size(cf, "n", most=MAX_N)
    reps = _size(cf, "replications", 400)
    model = _model_from(sections, config_dir)
    alpha = _alpha(cf)
    delta = _get(cf, "delta", float, 0.05)
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta!r}")
    draws = _get(cf, "calibration_draws", int, 5000)
    if draws < 1000:
        raise ConfigError(f"calibration_draws must be >= 1000, got {draws!r}")
    seed = args.seed if args.seed is not None else _get(cf, "seed", int, 0)
    header = _header(sections, seed, {"n": n, "num_probes": num_probes})

    def texts() -> Iterator[str]:
        u0, coverage = verify.confidence_band(
            model, alpha, n, delta, draws, seed, replications=reps, num_probes=num_probes
        )
        yield csv_table("n,delta,u0,coverage", [(n, delta, u0, coverage)], comments=header)

    return ["confidence.csv"], texts()


def _cmd_fejer(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    n_list = _n_list(sections.get("fejer", {}))
    model = _model_from(sections, config_dir)
    header = _header(sections, None, {"n_list": " ".join(map(str, n_list))})

    def texts() -> Iterator[str]:
        rows = [(n, *verify._fejer_bias(model, n)) for n in n_list]
        yield csv_table("n,sup_err,bound", rows, comments=header)

    return ["fejer.csv"], texts()


#: each verb reads and checks its config, then returns its output names and lazy texts
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
        names, texts = _DISPATCH[args.verb](args, sections, args.config.parent.resolve())
        _write_bundle(args.out, names, texts, args.force)
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
