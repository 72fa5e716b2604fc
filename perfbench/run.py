"""fracspec benchmark: whole CLI runs in fresh processes, outputs checked against the seed commit.

The seed commit is the source tree of commit 9f23565, on which the benchmark
was defined; ``perfbench/reference`` holds its outputs.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload mc_ar1 --seed 1 --seconds 40 --trace 0

Without ``--workload`` it runs every workload in turn. A run first times
SETUP_IMPORTS fresh ``import fracspec.cli`` processes, then runs passes over
the workload's CLI invocations for about ``--seconds`` (at least two passes).
Each invocation is a fresh ``python3 -m fracspec`` process with ``--threads 1``
and ``--seed`` set from the workload seed; its outputs are compared with the
reference. With ``--trace 1`` passes alternate between untraced
and traced (``perfbench/tracer.py``) and the run reports per-layer metrics
instead of end-to-end ones. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import lzma
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import CLIP_COUNTER, COUNTERS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OWN_CONFIGS = HERE / "configs"
REFERENCE = HERE / "reference"

#: the CLI gets --seed (workload seed mod CLI_SEEDS); the reference holds outputs for each
CLI_SEEDS = 4
#: fresh imports timed per run for setup_s
SETUP_IMPORTS = 3
#: a CLI process still running after this many seconds is killed and counts as failed
PROC_TIMEOUT_S = 120.0

DENSITY_CSV = "ar1_density_4097.csv"


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload pass."""

    name: str  # output directory and reference key
    verb: str
    config: str  # "configs/..." ships with the repository; a bare name is in perfbench/configs


WORKLOADS = {
    "mc_ar1": (Step("mc", "mc", "configs/mc_ar1.ini"),),
    "band_16k": (Step("confidence", "confidence", "band_16k.ini"),),
    "cli_short": (
        Step("simulate_ar1", "simulate", "configs/simulate_ar1.ini"),
        Step("estimate_path0", "estimate", "estimate_path0.ini"),
        Step("truth_constant", "truth", "configs/truth_constant.ini"),
        Step("fejer_ar1", "fejer", "configs/fejer_ar1.ini"),
        Step("simulate_custom", "simulate", "simulate_custom.ini"),
        Step("truth_custom", "truth", "truth_custom.ini"),
    ),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPAN_NAMES = tuple(f"{module}.{qualname}" for module, qualname in SPANS)
COUNTER_NAMES = tuple(f"{module}.{qualname}.calls" for module, qualname in COUNTERS) + (CLIP_COUNTER,)

#: size keys of ms_per_call, for the layers mc_ar1 calls at two sizes
KEYED = {
    "gsim.sample_path": ("n512", "n2048"),
    "estimate.periodogram": ("g4097", "g8193"),
    "estimate.frac_estimate": ("g4097", "g8193"),
    "fracops.frac_integral": ("g4097", "g8193"),
    "fracops.modulus_profile": ("g4097", "g8193"),
}

SCIPY_IMPORTS = ("scipy.signal", "scipy.integrate", "scipy.stats")

#: layers that must make calls on each workload; zero calls means a binding was missed
EXPECTED = {
    "mc_ar1": (
        "cli.main", "gsim.sample_path", "estimate.periodogram", "estimate.frac_estimate",
        "fracops.frac_integral", "fracops.modulus_profile", "specmodel.limit_covariance",
        "specmodel.theta_point", "verify.run_monte_carlo", "verify.expected_estimate",
    ),
    "band_16k": (
        "cli.main", "gsim.sample_path", "estimate.periodogram", "estimate.frac_estimate",
        "fracops.frac_integral", "specmodel.limit_covariance", "specmodel.theta_point",
        "verify.confidence_band",
    ),
    "cli_short": (
        "cli.main", "grid.GridFunction.to_csv_text", "grid.GridFunction.from_csv_text",
        "gsim.sample_path", "gsim.SamplePath.to_csv_text", "gsim.SamplePath.from_csv",
        "estimate.periodogram", "estimate.frac_estimate", "fracops.frac_integral",
        "fracops.modulus_of_continuity", "specmodel.limit_covariance",
        "specmodel.autocovariance_batch", "specmodel.expected_periodogram",
        "specmodel.frac_truth_profile", "specmodel.spectral_profile",
    ),
}


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = [("cli.import_s", "s", "lower")]
    out += [(f"cli.import.{m.split('.')[1]}_s", "s", "lower") for m in SCIPY_IMPORTS]
    out += [("cli.bytes_written", "bytes", "lower"), ("cli.outputs_identical", "bool", "higher")]
    for name in SPAN_NAMES:
        out += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.self_s", "s", "lower"),
            (f"{name}.ms_per_call", "ms", "lower"),
        ]
        out += [(f"{name}.ms_per_call.{key}", "ms", "lower") for key in KEYED.get(name, ())]
    out += [(name, "count", "lower") for name in COUNTER_NAMES]
    out += [
        ("fail_frac", "ratio", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
        ("trace.missing_layers", "count", "lower"),
    ]
    return out


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- processes -------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def _cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "FRACSPEC_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(cmd: list[str], log: Path) -> Proc:
    """Run cmd from the checkout root; wall time from spawn to exit, rusage of the process."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_cli_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(PROC_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


IMPORT_TIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)")


def measure_setup(log_dir: Path, importtime: bool) -> tuple[list[float], dict[str, list[float]]]:
    """Wall times of fresh `import fracspec.cli` processes, plus scipy import times if asked."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, "-c", "import sys, fracspec.cli; sys.stdout.write(fracspec.cli.__file__)"]
    walls, scipy_s = [], {m: [] for m in SCIPY_IMPORTS}
    for i in range(SETUP_IMPORTS):
        log = log_dir / f"setup_{i}"
        proc = run_process(cmd, log)
        err = log.with_suffix(".err").read_text(errors="replace")
        if proc.code != 0:
            raise BenchError(f"import fracspec.cli failed:\n{err[-2000:]}")
        loaded = Path(log.with_suffix(".out").read_text())
        if loaded.resolve() != (SRC / "fracspec" / "cli.py").resolve():
            raise BenchError(f"fracspec was imported from {loaded}, not from {SRC}")
        walls.append(proc.wall_s)
        cumulative = {name: int(us) for us, name in IMPORT_TIME.findall(err)}
        for m in SCIPY_IMPORTS:
            scipy_s[m].append(cumulative.get(m, 0) / 1e6)
    return walls, scipy_s


# --- output check ----------------------------------------------------------

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _round_number(token: str) -> str:
    return token if token.lstrip("+-").isdigit() else f"{float(token):.10g}"


def normalize(text: str) -> str:
    """Comment lines verbatim; numbers elsewhere rounded to 10 significant digits."""
    return "\n".join(
        line if line.startswith("#") else NUMBER.sub(lambda m: _round_number(m.group()), line)
        for line in text.split("\n")
    )


def matches(text: str, reference: str, rtol: float, atol: float) -> bool:
    """Comment lines byte for byte; other text exact, numbers within atol + rtol * |ref|."""
    got, want = text.split("\n"), reference.split("\n")
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g.startswith("#") or w.startswith("#"):
            if g != w:
                return False
            continue
        g_nums, w_nums = NUMBER.findall(g), NUMBER.findall(w)
        if NUMBER.split(g) != NUMBER.split(w) or len(g_nums) != len(w_nums):
            return False
        for a, b in zip(map(float, g_nums), map(float, w_nums)):
            if not abs(a - b) <= atol + rtol * abs(b):
                return False
    return True


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


@dataclass
class StepCheck:
    failed: bool  # non-zero exit, or outputs that differ from the reference
    regressed: bool  # failed where the seed commit succeeded, or wrong outputs
    identical: bool  # exit code and every output byte as at the seed commit
    wrong_file: str = ""  # first output that is missing or differs from the reference


def check_step(code: int, files: dict[str, bytes], ref: dict, rtol: float, atol: float) -> StepCheck:
    ref_files = ref["files"]
    identical = (
        code == ref["exit"]
        and files.keys() == ref_files.keys()
        and all(hashlib.sha256(files[n]).hexdigest() == r["sha256"] for n, r in ref_files.items())
    )
    wrong_file = ""
    if code == 0:
        for name, r in ref_files.items():
            try:
                ok = matches(files[name].decode("utf-8"), r["text"], rtol, atol)
            except (KeyError, UnicodeDecodeError):
                ok = False
            if not ok:
                wrong_file = name
                break
    failed = code != 0 or bool(wrong_file)
    return StepCheck(failed, bool(wrong_file) or (code != 0 and ref["exit"] == 0), identical, wrong_file)


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json.xz"
    if not path.is_file():
        raise BenchError(f"reference outputs missing: {path}")
    with lzma.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


# --- passes ----------------------------------------------------------------


def ar1_density_csv(rho: float = 0.5, points: int = 4097) -> str:
    """AR(1) density on [0, 2*pi], mirrored so that f(lam) = f(2*pi - lam) holds exactly."""
    half = [
        (1.0 - rho * rho) / (1.0 - 2.0 * rho * math.cos(2.0 * math.pi * k / (points - 1)) + rho * rho)
        / (2.0 * math.pi)
        for k in range((points - 1) // 2 + 1)
    ]
    values = half + half[-2::-1]
    rows = [f"{2.0 * math.pi * k / (points - 1):.17g},{v:.17g}" for k, v in enumerate(values)]
    return "lambda,value\n" + "\n".join(rows) + "\n"


@dataclass
class Pass:
    traced: bool
    procs: list[Proc] = field(default_factory=list)
    checks: list[StepCheck] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    outputs: dict[str, dict[str, bytes]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)  # why invocations failed

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    @property
    def bytes_written(self) -> int:
        return sum(len(b) for files in self.outputs.values() for b in files.values())


def run_pass(workload: str, cli_seed: int, traced: bool, reference: dict | None, tol: tuple[float, float]) -> Pass:
    pass_dir = WORK / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    for own in OWN_CONFIGS.iterdir():
        shutil.copyfile(own, pass_dir / own.name)
    (pass_dir / DENSITY_CSV).write_text(ar1_density_csv(), encoding="utf-8")
    result = Pass(traced)
    for step in WORKLOADS[workload]:
        out = pass_dir / step.name
        config = ROOT / step.config if "/" in step.config else pass_dir / step.config
        cli_args = [
            step.verb, "--config", str(config), "--out", str(out),
            "--seed", str(cli_seed), "--threads", "1",
        ]
        trace_file = pass_dir / f"{step.name}.trace.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *cli_args]
        else:
            cmd = [sys.executable, "-m", "fracspec", *cli_args]
        proc = run_process(cmd, pass_dir / step.name)
        result.procs.append(proc)
        result.outputs[step.name] = read_outputs(out)
        if traced:
            result.traces.append(
                json.loads(trace_file.read_text()) if trace_file.is_file() else {}
            )
        if reference is not None:
            check = check_step(proc.code, result.outputs[step.name], reference[step.name], *tol)
            result.checks.append(check)
            if check.failed:
                if check.wrong_file:
                    result.notes.append(f"{workload}/{step.name}: {check.wrong_file} differs from the reference")
                else:
                    err = (pass_dir / f"{step.name}.err").read_text(errors="replace").split("\n")
                    last = next((line for line in reversed(err) if line.strip()), "")
                    result.notes.append(f"{workload}/{step.name}: exit {proc.code}: {last}")
    return result


def measure(workload: str, cli_seed: int, seconds: float, trace: bool, reference: dict, tol) -> list[Pass]:
    """At least two passes, and more while the next is predicted to end within `seconds`.

    Traced runs alternate untraced and traced passes.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, cli_seed, traced, reference, tol))
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


# --- metrics ---------------------------------------------------------------


def trace_layers(traces: list[dict], walls: list[float]) -> dict[str, float]:
    """Per-layer values of one traced pass from the spans of its processes."""
    calls, self_s, total_s = Counter(), Counter(), Counter()
    keyed_calls, keyed_s = Counter(), Counter()
    counts = Counter()
    import_s = accounted = 0.0
    for record, wall in zip(traces, walls):
        spans = record.get("spans", [])
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total_s[name] += dur
            self_s[name] += dur - children[i]
            if size is not None:
                keyed_calls[name, size] += 1
                keyed_s[name, size] += dur
            if parent < 0:
                accounted += dur
        import_s += record.get("import_s", 0.0)
        counts.update(record.get("counts", {}))
    out = {"cli.import_s": import_s, "trace.unaccounted_s": sum(walls) - import_s - accounted}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.ms_per_call"] = 1e3 * total_s[name] / calls[name] if calls[name] else 0.0
        for key in KEYED.get(name, ()):
            n = keyed_calls[name, key]
            out[f"{name}.ms_per_call.{key}"] = 1e3 * keyed_s[name, key] / n if n else 0.0
    for name in COUNTER_NAMES:
        out[name] = counts[name]
    return out


def missing_layers(workload: str, layers: dict[str, float], traces: list[dict]) -> list[str]:
    """Expected layers with zero calls, or that the tracer could not find."""
    not_found = {name for record in traces for name in record.get("missing", [])}
    return sorted(
        name for name in EXPECTED[workload]
        if name in not_found or layers.get(f"{name}.calls", 0) == 0
    )


def negative_self_times(layers: dict[str, float]) -> list[str]:
    return sorted(k for k, v in layers.items() if k.endswith(".self_s") and v < 0)


def layer_metrics(workload: str, passes: list[Pass], scipy_s: dict[str, list[float]]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [trace_layers(p.traces, [q.wall_s for q in p.procs]) for p in traced]
    out = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    for m in SCIPY_IMPORTS:
        out[f"cli.import.{m.split('.')[1]}_s"] = statistics.median(scipy_s[m])
    traced_wall = statistics.median(p.wall_s for p in traced)
    missing = missing_layers(workload, out, [t for p in traced for t in p.traces])
    for name in missing:
        print(f"trace: {name} made no calls on {workload}; a binding was missed or the layer moved",
              file=sys.stderr)
    out.update({
        "cli.bytes_written": statistics.median(p.bytes_written for p in passes),
        "cli.outputs_identical": int(all(c.identical for p in passes for c in p.checks)),
        "fail_frac": _fail_frac(passes),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(p.wall_s for p in untraced),
        "trace.missing_layers": len(missing),
    })
    return out


def _fail_frac(passes: list[Pass]) -> float:
    checks = [c for p in passes for c in p.checks]
    return sum(c.failed for c in checks) / len(checks)


def end_to_end_metrics(passes: list[Pass], setup_walls: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }


# --- environment -----------------------------------------------------------


def environment() -> dict[str, object]:
    """Versions, BLAS build and threads, CPU and commit, recorded beside every result."""
    from importlib.metadata import PackageNotFoundError, version

    env: dict[str, object] = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = version(pkg)
        except PackageNotFoundError:
            env[pkg] = "missing"
    env["blas"] = _blas_info()
    env["blas_thread_env"] = {
        k: os.environ.get(k, "unset")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["nproc"] = len(os.sched_getaffinity(0))
    env["cpu_model"] = _cpu_model()
    env["git_commit"] = _git_commit()
    return env


def _blas_info() -> dict[str, object]:
    import ctypes

    import numpy

    info: dict[str, object] = {"build": "unknown", "threads": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    # the runtime core type and thread count come from the OpenBLAS bundled with numpy, if any
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.argtypes, threads.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            info["build"] = config().decode()
            info["threads"] = threads()
            return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# --- entry points ----------------------------------------------------------


def _check_checkout() -> None:
    needed = [SRC / "fracspec" / "cli.py"] + [
        ROOT / s.config for steps in WORKLOADS.values() for s in steps if "/" in s.config
    ]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        raise BenchError(f"not a fracspec checkout; missing {', '.join(absent)}")


def benchmark(args, workload: str) -> dict:
    reference = load_reference(workload)
    cli_seed = args.seed % CLI_SEEDS
    WORK.mkdir(parents=True, exist_ok=True)
    log_dir = WORK / "setup"
    shutil.rmtree(log_dir, ignore_errors=True)
    log_dir.mkdir()
    setup_walls, scipy_s = measure_setup(log_dir, importtime=bool(args.trace))
    tol = (args.rtol, args.atol)
    passes = measure(workload, cli_seed, args.seconds, bool(args.trace), reference[str(cli_seed)], tol)
    checks = [c for p in passes for c in p.checks]
    for note in dict.fromkeys(n for p in passes for n in p.notes):
        print(note, file=sys.stderr)
    if args.trace:
        values = layer_metrics(workload, passes, scipy_s)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        values = end_to_end_metrics(passes, setup_walls)
        units = dict(END_TO_END)
    env = environment()
    summary = {
        "workload": workload,
        "seed": args.seed,
        "cli_seed": cli_seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_traced": [p.traced for p in passes],
        "setup_s": setup_walls,
        "fail_frac": _fail_frac(passes),
        "outputs_identical": all(c.identical for c in checks),
        "bytes_written": passes[0].bytes_written,
        "rtol": args.rtol,
        "atol": args.atol,
        "env": env,
    }
    result = {
        "correct": not any(c.regressed for c in checks),
        "attempted": len(checks),
        "failed": sum(c.failed for c in checks),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**summary, **result}, indent=1) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"medians over {len(passes)} passes ({sum(p.traced for p in passes)} traced), "
          f"setup_s over {len(setup_walls)} imports")
    print(f"invocations {result['attempted']}, failed {result['failed']} "
          f"(fail_frac {summary['fail_frac']:.6g}), outputs identical to the seed commit: "
          f"{'yes' if summary['outputs_identical'] else 'no'}")
    print("env " + json.dumps(env, sort_keys=True))
    return result


def make_reference() -> None:
    """Store every workload's outputs for each CLI seed; run only on the seed commit."""
    REFERENCE.mkdir(exist_ok=True)
    for workload, steps in WORKLOADS.items():
        stored = {}
        for cli_seed in range(CLI_SEEDS):
            done = run_pass(workload, cli_seed, False, None, (0.0, 0.0))
            stored[str(cli_seed)] = {
                step.name: {
                    "exit": proc.code,
                    "files": {
                        name: {"sha256": hashlib.sha256(data).hexdigest(), "text": normalize(data.decode("utf-8"))}
                        for name, data in done.outputs[step.name].items()
                    },
                }
                for step, proc in zip(steps, done.procs)
            }
            print(f"{workload} seed {cli_seed}: exits {[p.code for p in done.procs]}", file=sys.stderr)
        with lzma.open(REFERENCE / f"{workload}.json.xz", "wt", encoding="utf-8", preset=9) as fh:
            json.dump(stored, fh, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rtol", type=float, default=1e-6, help="relative tolerance of numeric cells")
    parser.add_argument("--atol", type=float, default=1e-12, help="absolute tolerance of numeric cells")
    parser.add_argument("--make-reference", action="store_true",
                        help="store the outputs of this commit as the reference (seed commit only)")
    args = parser.parse_args(argv)
    try:
        _check_checkout()
        if args.make_reference:
            make_reference()
            return 0
        for workload in [args.workload] if args.workload else list(WORKLOADS):
            print(f"== {workload}")
            print(json.dumps(benchmark(args, workload)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
