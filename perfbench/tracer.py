"""Run one fracspec CLI invocation with per-layer spans recorded from outside the package.

    python3 perfbench/tracer.py SPANS_JSON VERB --config ... --out ...

Imports ``fracspec.cli`` (timed as the import), wraps the public functions named
in ``SPANS`` and ``COUNTERS``, runs ``fracspec.cli.main`` on the remaining
arguments and writes what it recorded to SPANS_JSON when the CLI returns.
``from .x import f`` copies ``f`` into the importing module, so every module
binding that refers to a wrapped function is replaced, not only the original.
Spans stay in memory until the end; each is ``[name, start, end, parent, size]``
with times from ``time.perf_counter`` and ``parent`` the index of the enclosing
span (-1 at top level). Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

#: (module, qualified name) of every function timed as a span
SPANS = (
    ("cli", "main"),
    ("grid", "GridFunction.to_csv_text"),
    ("grid", "GridFunction.from_csv_text"),
    ("gsim", "sample_path"),
    ("gsim", "SamplePath.to_csv_text"),
    ("gsim", "SamplePath.from_csv"),
    ("estimate", "periodogram"),
    ("estimate", "frac_estimate"),
    ("fracops", "frac_integral"),
    ("fracops", "modulus_profile"),
    ("fracops", "modulus_of_continuity"),
    ("specmodel", "limit_covariance"),
    ("specmodel", "autocovariance_batch"),
    ("specmodel", "expected_periodogram"),
    ("specmodel", "frac_truth_profile"),
    ("specmodel", "spectral_profile"),
    ("verify", "run_monte_carlo"),
    ("verify", "confidence_band"),
)

#: functions whose calls are counted but not timed, so their time stays in the caller's self time
COUNTERS = (
    ("specmodel", "theta_point"),
    ("verify", "expected_estimate"),
)


def _grid_of_result(args, result) -> str:
    grid_fn = getattr(result, "grid_fn", result)
    return f"g{grid_fn.num_points}"


#: size label per span, used to key ms_per_call where a workload mixes sizes
SIZES = {
    "gsim.sample_path": lambda args, result: f"n{result.n}",
    "estimate.periodogram": _grid_of_result,
    "estimate.frac_estimate": _grid_of_result,
    "fracops.frac_integral": _grid_of_result,
    "fracops.modulus_profile": lambda args, result: f"g{args[0].num_points}",
}

CLIP_COUNTER = "specmodel.limit_covariance.clip_applied"


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {CLIP_COUNTER: 0}

    def span(self, name: str, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            if size is not None:
                record[4] = size(args, result)
            if name == "specmodel.limit_covariance" and result.clip_applied:
                self.counts[CLIP_COUNTER] += 1
            return result

        return wrapper

    def counter(self, name: str, fn):
        key = f"{name}.calls"
        self.counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _patch(modules: dict, module: str, qualname: str, make) -> bool:
    """Replace the function and every binding of it; False if it does not exist."""
    mod = modules.get(module)
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(mod, owner_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return True
    original = getattr(mod, attr, None)
    if original is None:
        return False
    wrapped = make(original)
    for other in modules.values():
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapped)
    return True


def fracspec_modules() -> dict:
    """Loaded fracspec modules by short name ("cli", "grid", ...; the package as "fracspec")."""
    return {
        name.partition(".")[2] or name: mod
        for name, mod in sys.modules.items()
        if name == "fracspec" or name.startswith("fracspec.")
    }


def install(recorder: Recorder) -> list[str]:
    """Wrap every function in SPANS and COUNTERS; returns the names that do not exist."""
    # modules the CLI imports lazily must be loaded before their bindings can be patched
    for module, _ in SPANS + COUNTERS:
        try:
            importlib.import_module(f"fracspec.{module}")
        except ImportError:
            pass
    modules = fracspec_modules()
    missing = []
    for targets, make in ((SPANS, recorder.span), (COUNTERS, recorder.counter)):
        for module, qualname in targets:
            name = f"{module}.{qualname}"
            if not _patch(modules, module, qualname, functools.partial(make, name)):
                missing.append(name)
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    cli = importlib.import_module("fracspec.cli")
    import_s = perf_counter() - start
    recorder = Recorder()
    missing = install(recorder)
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        record = {
            "import_s": import_s,
            "spans": recorder.spans,
            "counts": recorder.counts,
            "missing": missing,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
