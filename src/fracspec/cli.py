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
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

# the linear algebra is small, and an idle BLAS worker spins beside the FFT loop and
# multiplies with the --threads pool workers, which inherit this environment
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# numpy and the numerical modules are imported by the commands that run them, so
# help, version, usage and config-file errors exit without loading numpy
from . import __version__
from .errors import ConfigError, DomainError, NumericalError, _check_whole

if TYPE_CHECKING:
    from .specmodel import SpectralModel

_EXIT_OK = 0
_EXIT_DOMAIN = 1
_EXIT_NUMERICAL = 2
_EXIT_IO = 3
_MAX_THREADS = 256  # most --threads workers; mc starts no more than it has blocks
_MAX_PATHS = 2**16  # most simulate files; their names are listed before any is drawn

#: keys of [model], which every verb except estimate reads
_MODEL_KEYS = {"kind", "c", "rho", "grid_csv_path"}


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
    for verb, (help_text, _, _) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="INI experiment config")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--force", action="store_true", help="allow overwriting existing files")
        p.add_argument(
            "--threads", type=int, default=None,
            help=f"mc workers, 0 (auto) to {_MAX_THREADS}; default: FRACSPEC_THREADS or 1",
        )
    return parser


def _resolve_threads(flag: int | None) -> int:
    name = "--threads" if flag is not None else "FRACSPEC_THREADS"
    if flag is None:
        env = os.environ.get(name, "").strip()
        if not env:
            return 1
        try:
            flag = int(env)
        except ValueError as exc:
            raise ConfigError(f"{name} must be an integer, got {env!r}") from exc
    if not 0 <= flag <= _MAX_THREADS:
        raise ConfigError(f"{name} must be between 0 and {_MAX_THREADS}, got {flag}")
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
    _, keys, _ = _VERBS[verb]
    allowed = {verb: keys} if verb == "estimate" else {"model": _MODEL_KEYS, verb: keys}
    unknown_sections = set(sections) - set(allowed)
    if unknown_sections:
        raise ConfigError(
            f"unknown config section(s) for verb {verb!r}: {sorted(unknown_sections)}"
        )
    for name, mapping in sections.items():
        bad = set(mapping) - allowed[name]
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
    from .grid import _check_grid_points

    # 0 asks for the automatic grid of a verb whose default is 0
    return _check_grid_points(_get(section, key, int, default), key, auto=not default)


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


#: the cast of each [mc] key and each [confidence] key but seed, in reading order;
#: the values are checked, and the defaults of the keys left out are held, by
#: verify.McConfig and verify._check_band
_MC_CASTS = {"grid_points": int, "n_list": _int_list, "probe_lambdas": _float_list,
             "alpha": float, "replications": int, "seed": int, "tail_u_grid": _float_list,
             "holder_delta": float, "delta_confidence": float}
_BAND_CASTS = {"num_probes": int, "n": int, "replications": int, "alpha": float,
               "delta": float, "calibration_draws": int}


def _cast(section: dict, casts: dict, required: Iterable[str]) -> dict:
    """Each key of casts that the section gives, cast; a required one it lacks is an error."""
    return {key: _get(section, key, cast) for key, cast in casts.items()
            if key in section or key in required}


def _seed(section: dict, override: int | None) -> int:
    # the config seed is checked even when --seed replaces it
    seed = _get(section, "seed", int, 0)
    return seed if override is None else override


def _model_from(sections: dict, config_dir: Path) -> SpectralModel:
    from .grid import GridFunction
    from .specmodel import SpectralModel

    if "model" not in sections:
        raise ConfigError("config is missing required section [model]")
    section = sections["model"]
    kind = _get(section, "kind", str)
    if kind == "constant":
        return SpectralModel.constant(_get(section, "c", float))
    if kind == "ar1":
        return SpectralModel.ar1(_get(section, "rho", float))
    if kind == "custom_grid":
        path = config_dir / _get(section, "grid_csv_path", str)
        return SpectralModel.custom(GridFunction.from_csv(path, periodic=True))
    raise ConfigError(f"unknown model kind {kind!r}")


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
    from .gsim import sample_path
    from .specmodel import MAX_N

    sim = sections.get("simulate", {})
    n = _check_whole(_get(sim, "n", int), "n", 1, MAX_N)
    count = _check_whole(_get(sim, "count", int, 1), "count", 1, _MAX_PATHS)
    mean = _get(sim, "mean", float, 0.0)
    if not math.isfinite(mean):
        raise ConfigError(f"mean must be finite, got {mean!r}")
    seed = _seed(sim, args.seed)
    model = _model_from(sections, config_dir)
    header = _header(sections, seed, {"n": n})
    texts = (
        sample_path(model, n, seed, mean=mean, stream=k).to_csv_text(
            comments=header + [f"stream = {k}"]
        )
        for k in range(count)
    )
    return [f"path_{k:03d}.csv" for k in range(count)], texts


def _cmd_estimate(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    from .estimate import default_grid_points, frac_estimate, periodogram
    from .fracops import _check_alpha
    from .gsim import SamplePath

    est = sections.get("estimate", {})
    alpha = _check_alpha(_get(est, "alpha", float))
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
    from . import specmodel
    from .fracops import _check_alpha

    tr = sections.get("truth", {})
    num_points = _grid_points(tr, "num_points", 4097)
    alpha = _check_alpha(_get(tr, "alpha", float))
    default = (math.pi / 2, math.pi, 2.0 * math.pi)
    probes = specmodel._check_probes(_get(tr, "probe_lambdas", _float_list, default))
    model = _model_from(sections, config_dir)
    header = _header(sections, None, {"grid_points": num_points})
    with_alpha = header + [f"alpha = {alpha:g}"]

    def texts() -> Iterator[str]:
        yield specmodel.spectral_profile(model, num_points).to_csv_text(comments=header)
        truth = specmodel.frac_truth_profile(model, alpha, num_points)
        yield truth.to_csv_text(comments=with_alpha)
        yield specmodel.limit_covariance(model, alpha, probes).to_csv_text(comments=with_alpha)

    return ["spectral_function.csv", "frac_derivative.csv", "theta.csv"], texts()


def _cmd_mc(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    from . import verify

    plan = _cast(sections.get("mc", {}), _MC_CASTS, ("n_list", "alpha", "replications"))
    if args.seed is not None:  # the config seed is still checked
        plan["seed"] = args.seed
    config = verify.McConfig(**plan)
    threads = _resolve_threads(args.threads)
    model = _model_from(sections, config_dir)
    grid_sizes = {
        "grid_points": config.grid_points or "auto",
        "n_list": " ".join(str(n) for n in config.n_list),
    }
    header = _header(sections, config.seed, grid_sizes)

    def texts() -> Iterator[str]:
        report = verify.run_monte_carlo(model, config, threads=threads)
        yield report.to_json_text() + "\n"
        yield from report.csv_tables(header).values()

    return ["report.json", *(name for name, *_ in verify.MC_TABLES)], texts()


def _cmd_confidence(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    from . import verify
    from .grid import csv_table

    cf = sections.get("confidence", {})
    band = verify._check_band(**_cast(cf, _BAND_CASTS, ("n", "alpha")))
    seed = _seed(cf, args.seed)
    model = _model_from(sections, config_dir)
    header = _header(sections, seed, {"n": band["n"], "num_probes": band["num_probes"]})

    def texts() -> Iterator[str]:
        u0, coverage = verify.confidence_band(model, seed=seed, **band)
        row = (band["n"], band["delta"], u0, coverage)
        yield csv_table("n,delta,u0,coverage", [row], comments=header)

    return ["confidence.csv"], texts()


def _cmd_fejer(args, sections: dict, config_dir: Path) -> tuple[list[str], Iterator[str]]:
    from . import specmodel
    from .grid import csv_table

    n_list = specmodel._check_n_list(_get(sections.get("fejer", {}), "n_list", _int_list))
    model = _model_from(sections, config_dir)
    header = _header(sections, None, {"n_list": " ".join(map(str, n_list))})

    def texts() -> Iterator[str]:
        rows = [(n, *specmodel._fejer_bias(model, n)) for n in n_list]
        yield csv_table("n,sup_err,bound", rows, comments=header)

    return ["fejer.csv"], texts()


#: per verb: its help, the keys of its own section, and its command, which reads and
#: checks the config, then returns its output names and lazy texts
_VERBS = {
    "simulate": (
        "draw stationary Gaussian sample paths and write them as CSV",
        {"n", "count", "mean", "seed"}, _cmd_simulate,
    ),
    "estimate": (
        "compute periodogram and fractional estimate for stored paths",
        {"path_csv", "alpha", "num_points"}, _cmd_estimate,
    ),
    "truth": (
        "write exact spectral function, fractional derivative, and limit covariance",
        {"alpha", "num_points", "probe_lambdas"}, _cmd_truth,
    ),
    "mc": (
        "run the Monte Carlo verification plan and write the report bundle",
        set(_MC_CASTS), _cmd_mc,
    ),
    "confidence": (
        "calibrate a sup-norm confidence band and measure its coverage",
        {*_BAND_CASTS, "seed"}, _cmd_confidence,
    ),
    "fejer": (
        "tabulate the smoothing bias of the expected periodogram over n",
        {"n_list"}, _cmd_fejer,
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sections = _read_config(args.config, args.verb)
        args.out.mkdir(parents=True, exist_ok=True)
        _, _, command = _VERBS[args.verb]
        names, texts = command(args, sections, args.config.parent.resolve())
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
