"""airfed benchmark driver.

Usage (from the repository root):

    python3 benchmarks/run.py --workload fl-desk --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1

Each workload runs in its own child process (worker.py), one at a time,
from this single-threaded process.  With ``--trace 0`` the run measures
set-up several times in fresh processes, then runs the workload's ops for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
runs the ops untraced for 40 % of the time, then the same ops again with
every airfed function in layers.py timed, checks that both runs rendered
byte-identical outputs, and reports the per-layer metrics.  ``all`` runs
every workload untraced, then traced.

Every metric is printed by name with its unit; the full result is written
to benchmarks/out/.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
metrics BENCHMARK.json lists for that mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from layers import LAYERS, qualnames

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fl-desk", "phy-paper", "cli-reports")
SETUP_REPEATS = 6  # set-up-only children; the measuring child adds one more sample
TRACED_SHARE = 0.4  # --trace 1 runs untraced for this share of --seconds, then the same ops traced
RUN_TIMEOUT_S = 170.0  # a single-workload run must finish well inside 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

KIND_METRIC = {
    "ideal": "ideal_round_ms",
    "baa": "analog_round_ms",
    "analog": "analog_round_ms",
    "digital": "digital_round_ms",
    "tradeoff": "tradeoff_ms",
    "latency": "latency_ms",
    "montecarlo": "montecarlo_ms",
    "extensions": "extensions_ms",
}
ROUND_WORKLOADS = ("fl-desk", "phy-paper")
FIELD_UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_ms": "ms",
    "peak_alloc_mb": "MB",
    "bytes_in_computed": "bytes",
    "delivered_frac": "ratio",
    "checks_failed": "count",
}


class BenchmarkError(RuntimeError):
    pass


def metric(value, unit: str, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["n"] = len(samples)
        out["tail"] = tail(samples)
    return out


def tail(samples) -> dict | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return {"p": p, "value": ordered[max(0, math.ceil(p / 100.0 * n) - 1)]}
    return None


def run_child(argv: list, deadline: float) -> tuple:
    """Run worker.py with ``argv``; return (its JSON result, its peak RSS in bytes)."""
    OUT.mkdir(exist_ok=True)
    stdout_path = OUT / f"child-{os.getpid()}.out"
    with open(stdout_path, "wb") as stdout:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], stdout=stdout, cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchmarkError(f"worker {' '.join(argv)} exceeded the time limit")
            time.sleep(0.02)
    except BaseException:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = stdout_path.read_text()
    stdout_path.unlink()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    result = json.loads(text.strip().splitlines()[-1])
    src = (ROOT / "src").resolve()
    if not Path(result["airfed_file"]).resolve().is_relative_to(src):
        raise BenchmarkError(f"worker imported airfed from {result['airfed_file']}, not {src}")
    return result, usage.ru_maxrss * 1024


def host_environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in threads},
        "git_sha": sha,
        "seed": seed,
    }


def op_problems(ops) -> int:
    return sum(1 for op in ops if op["problems"])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(base + ["--setup-only"], deadline)[0]["setup_s"] for _ in range(SETUP_REPEATS)]
    result, rss = run_child(base + ["--seconds", str(seconds)], deadline)
    setups.append(result["setup_s"])
    ops = result["ops"]

    metrics = {"setup_s": metric(statistics.median(setups), "s", setups)}
    cycle_s = cycle_ref = 0.0
    for kind in dict.fromkeys(op["kind"] for op in ops):
        of_kind = [op for op in ops if op["kind"] == kind]
        per_unit_ms = [op["wall_s"] / op["units"] * 1e3 for op in of_kind]
        metrics[KIND_METRIC[kind]] = metric(statistics.median(per_unit_ms), "ms", per_unit_ms)
        cycle_s += statistics.median(op["wall_s"] for op in of_kind)
        cycle_ref += statistics.median(op["wall_s"] / op["ref_s"] for op in of_kind)
    metrics["cycle_ms"] = metric(cycle_s * 1e3, "ms")
    metrics["cycle_ref"] = metric(cycle_ref, "ref")
    ref_ms = [op["ref_s"] * 1e3 for op in ops]
    metrics["host_ref_ms"] = metric(statistics.median(ref_ms), "ms", ref_ms)
    if workload in ROUND_WORKLOADS:
        rounds = sum(op["units"] for op in ops)
        metrics["rounds_per_s"] = metric(rounds / sum(op["wall_s"] for op in ops), "1/s")
    metrics["peak_rss_mb"] = metric(rss / 1e6, "MB")
    failed = op_problems(ops)
    metrics["fail_frac"] = metric(failed / len(ops), "ratio")
    return {
        "workload": workload,
        "trace": 0,
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "program_counts": result["program_counts"],
        "sizes": result["sizes"],
        "environment": {**host_environment(seed), **result["environment"]},
        "ops": ops,
    }


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    plain, _ = run_child(base + ["--seconds", str(seconds * TRACED_SHARE)], deadline)
    n_ops = len(plain["ops"])
    spans = OUT / f"spans-{workload}.npz"
    traced, _ = run_child(base + ["--ops", str(n_ops), "--trace", "1", "--spans", str(spans)], deadline)

    problems = []
    mismatched = [
        a["i"] for a, b in zip(plain["ops"], traced["ops"]) if a.get("digest") != b.get("digest")
    ]
    if mismatched or len(traced["ops"]) != n_ops:
        problems.append(f"traced outputs differ from untraced ones in ops {mismatched}")
    functions = traced["trace"]["functions"]
    uncalled = [name for name in qualnames(workload) if functions[name]["calls"] == 0]
    if uncalled:
        problems.append(f"no calls recorded for {uncalled}")

    metrics = {}
    modules = {}
    for qualname, row in functions.items():
        for field, value in row.items():
            metrics[f"{qualname}.{field}"] = metric(value, FIELD_UNITS[field])
        module = qualname.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    for module, self_s in modules.items():
        metrics[f"{module}.self_s"] = metric(self_s, "s")
    plain_wall = sum(op["wall_s"] for op in plain["ops"])
    traced_wall = sum(op["wall_s"] for op in traced["ops"])
    metrics["trace.overhead_frac"] = metric(traced_wall / plain_wall - 1.0, "ratio")
    metrics["trace.coverage_frac"] = metric(traced["trace"]["coverage_frac"], "ratio")
    metrics["trace.spans"] = metric(traced["trace"]["spans"], "count")

    ops = plain["ops"] + traced["ops"]
    failed = op_problems(ops)
    return {
        "workload": workload,
        "trace": 1,
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "spans_file": str(spans.relative_to(ROOT)),
        "layer_map": [asdict(layer) for layer in LAYERS],
        "sizes": traced["sizes"],
        "environment": {**host_environment(seed), **traced["environment"]},
    }


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (trace {result['trace']}): "
          f"{result['attempted']} ops, {result['failed']} failed, correct={result['correct']}")
    for problem in result.get("problems", []):
        print(f"   problem: {problem}")
    uncalled = {name[: -len(".calls")] for name, m in result["metrics"].items()
                if name.endswith(".calls") and m["value"] == 0}
    if uncalled:
        print(f"   not called here: {', '.join(sorted(uncalled))}")
    for name, m in result["metrics"].items():
        if name.rsplit(".", 1)[0] in uncalled:
            continue
        line = f"   {name:<46} {m['value']:>16.6g} {m['unit']}"
        if "n" in m:
            tail_text = f"p{m['tail']['p']:g}={m['tail']['value']:.6g}" if m["tail"] else "no tail percentile"
            line += f"   (median of n={m['n']}; {tail_text})"
        print(line)
    for name, value in result.get("program_counts", {}).items():
        print(f"   {name:<46} {value:>16} count")
    print(f"   sizes: {json.dumps(result['sizes'])}")
    print(f"   environment: {json.dumps(result['environment'])}")


def summary_line(results: list, spec: dict, prefix: bool) -> str:
    """The closing JSON line: the metrics BENCHMARK.json lists for each result's mode."""
    metrics = {}
    for result in results:
        for entry in spec["per_layer" if result["trace"] else "end_to_end"]:
            name = entry["name"]
            if name not in result["metrics"]:
                raise BenchmarkError(f"{result['workload']} did not produce {name}")
            m = result["metrics"][name]
            metrics[f"{result['workload']}.{name}" if prefix else name] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "airfed" / "__init__.py").is_file():
        print(f"error: no airfed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    if args.workload == "all":
        plan = [(w, 0) for w in WORKLOADS] + [(w, 1) for w in WORKLOADS]
        deadline = time.monotonic() + RUN_TIMEOUT_S * len(plan)
    else:
        plan = [(args.workload, args.trace)]
        deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        results = []
        for workload, traced in plan:
            measure = per_layer if traced else end_to_end
            results.append(measure(workload, args.seed, args.seconds, deadline))
            print_result(results[-1])
        line = summary_line(results, spec, prefix=args.workload == "all")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = "all" if args.workload == "all" else f"{args.workload}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
