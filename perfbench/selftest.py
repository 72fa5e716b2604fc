"""Self-test of the benchmark harness; exits 1 on the first failed check.

    python3 perfbench/selftest.py          # synthetic traces, output check, BENCHMARK.json, tracer bindings
    python3 perfbench/selftest.py --live   # also runs every workload traced (a few minutes)

The trace checks fail when a listed layer makes no calls on a workload where it
runs (the tracer missed a binding) and when any self time is negative.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import tracer


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def trace_problems(workload: str, layers: dict[str, float], traces: list[dict]) -> list[str]:
    problems = [f"{name} made no calls" for name in run.missing_layers(workload, layers, traces)]
    return problems + [f"{name} is negative" for name in run.negative_self_times(layers)]


def _synthetic_trace(workload: str, skip: str = "") -> dict:
    """One process that calls every expected layer once, each span nested in cli.main."""
    spans = [["cli.main", 0.0, 10.0, -1, None]]
    counts = {}
    for i, name in enumerate(n for n in run.EXPECTED[workload] if n not in ("cli.main", skip)):
        if f"{name}.calls" in run.COUNTER_NAMES:
            counts[f"{name}.calls"] = 3
        else:
            spans.append([name, 1.0 + i, 1.5 + i, 0, None])
    return {"import_s": 1.0, "spans": spans, "counts": counts, "missing": []}


def test_trace_checks() -> None:
    for workload in run.WORKLOADS:
        trace = _synthetic_trace(workload)
        layers = run.trace_layers([trace], [11.5])
        _check(not trace_problems(workload, layers, [trace]), f"{workload}: complete trace passes")
        _check(abs(layers["trace.unaccounted_s"] - 0.5) < 1e-12, f"{workload}: unaccounted time is wall - import - spans")
    missed = _synthetic_trace("mc_ar1", skip="fracops.modulus_profile")
    layers = run.trace_layers([missed], [11.5])
    _check(
        trace_problems("mc_ar1", layers, [missed]) == ["fracops.modulus_profile made no calls"],
        "a missed binding (zero calls) is reported",
    )
    counter_missed = _synthetic_trace("mc_ar1", skip="specmodel.theta_point")
    layers = run.trace_layers([counter_missed], [11.5])
    _check(
        trace_problems("mc_ar1", layers, [counter_missed]) == ["specmodel.theta_point made no calls"],
        "a missed counter is reported",
    )
    overlong = _synthetic_trace("band_16k")
    overlong["spans"].append(["estimate.periodogram", 0.5, 20.0, 0, None])
    layers = run.trace_layers([overlong], [25.0])
    _check(trace_problems("band_16k", layers, [overlong]) == ["cli.main.self_s is negative"],
           "a negative self time is reported")


def test_output_check() -> None:
    text = "# fracspec 0.1.0\n# seed = 3\nlambda,value\n0,0\n0.5,1.2345678901234567\n1,-3.0000000000000004e-05\n"
    ref = run.normalize(text)
    _check(run.matches(text, ref, 1e-6, 1e-12), "outputs match their normalized reference")
    _check(not run.matches(text.replace("seed = 3", "seed = 4"), ref, 1e-6, 1e-12), "a changed header fails")
    _check(not run.matches(text.replace("1.2345678901234567", "1.2345699"), ref, 1e-6, 1e-12),
           "a cell off by more than rtol fails")
    _check(run.matches(text.replace("1.2345678901234567", "1.2345678901234"), ref, 1e-6, 1e-12),
           "a cell within rtol passes")
    _check(not run.matches(text + "2,0\n", ref, 1e-6, 1e-12), "an extra row fails")
    ref_entry = {"exit": 0, "files": {"a.csv": {"sha256": "0" * 64, "text": ref}}}
    check = run.check_step(0, {"a.csv": text.encode()}, ref_entry, 1e-6, 1e-12)
    _check(not check.failed and not check.identical, "bytes that differ only within tolerance pass but are not identical")
    check = run.check_step(2, {}, {"exit": 2, "files": {}}, 1e-6, 1e-12)
    _check(check.failed and not check.regressed, "a step failing as at the seed commit counts as failed, not regressed")
    check = run.check_step(1, {}, ref_entry, 1e-6, 1e-12)
    _check(check.failed and check.regressed, "a step failing where the seed commit succeeded is a regression")


def test_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    _check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json lists the workloads")
    _check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json lists the end-to-end metrics")
    _check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics(),
           "BENCHMARK.json lists the per-layer metrics")


def test_tracer_bindings() -> None:
    """After install(), no fracspec module still refers to an unwrapped function."""
    sys.path.insert(0, str(run.SRC))
    import fracspec.cli  # noqa: F401

    modules = tracer.fracspec_modules()
    originals = {id(getattr(modules[m], q)): f"{m}.{q}" for m, q in tracer.SPANS + tracer.COUNTERS if "." not in q}
    missing = tracer.install(tracer.Recorder())
    _check(not missing, "every traced function exists")
    left = sorted(
        f"{mod_name}.{key} -> {originals[id(value)]}"
        for mod_name, mod in modules.items()
        for key, value in vars(mod).items()
        if id(value) in originals
    )
    _check(not left, f"every module binding is wrapped {left or ''}".strip())


def test_live() -> None:
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, check=False,
        )
        _check(proc.returncode == 0, f"{workload}: traced run exits 0" + ("" if proc.returncode == 0 else f"\n{proc.stderr[-500:]}"))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        layers = {k: m["value"] for k, m in result["metrics"].items()}
        _check(result["correct"], f"{workload}: outputs match the reference")
        _check(layers["trace.missing_layers"] == 0, f"{workload}: every expected layer made calls")
        _check(not run.negative_self_times(layers), f"{workload}: no negative self time")


if __name__ == "__main__":
    test_trace_checks()
    test_output_check()
    test_benchmark_json()
    test_tracer_bindings()
    if "--live" in sys.argv[1:]:
        test_live()
    print("selftest passed")
