"""The oribij benchmark: one command, four workloads over the ROADMAP ladder.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.  The
seed generates the inputs (signature weights, query orientations, the verify
sample seed) as CLI input files under ``.bench_work``; the package sees only
those files.  Each run of the workload is one fresh child process, and
children run one at a time while another still fits in ``--seconds`` (at
least one, or one of each kind when tracing).  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
children); with ``--trace 1`` they are the per-layer ones, from traced
children, plus the tracing overhead against untraced children of the same
run.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import tracing  # noqa: E402

CHILD_TIMEOUT_S = 170
# Per-child figures printed on the environment line, for reading a run.
CHILD_DETAIL = ("run_id", "trace", "setup_s", "setup_cpu_s", "run_s", "run_cpu_s", "rss_mb",
                "attempted", "failed", "refused", "latency")

# Sizes per workload; the reason for each is in BENCHMARK.json.
WORKLOADS = {
    "table-w7": {"ladder": ["W7"]},
    "verify-n12": {"ladder": ["W6", "grid3x3"], "samples": 2000},
    "query-w7": {"ladder": ["W7"], "twins": True, "queries": 1500},
    "pool-small": {"ladder": ["K4", "W4", "K5", "R10"], "ladder_weights": "canonical",
                   "pool": 60, "twins": True},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "served_share": "ratio",
}

# Per-layer metrics: summed self time per child ("_s"), median call time
# ("_ms"), or a count.  Layers that do not run on a workload report 0.
SELF_TIME_LAYERS = (
    "core.independent_sets", "core.circuits", "core.cocircuits", "core.closure",
    "signatures.from_weights", "signatures.is_acyclic",
    "fourier_motzkin.maximize", "fourier_motzkin.project",
    "reversal.enumerate_classes", "bijection.build",
    "verification.separation", "geometry.tiling_forward", "geometry.tiling_complement",
    "geometry.polynomials", "geometry.zonotope_count",
    "oracle.tutte", "oracle.closure_classes", "serialize.table_json",
)
CALL_TIME_LAYERS = (
    "core.conformal_decompose", "core.conformal_decompose_matroid",
    "core.split_kernel_image", "reversal.compatible_decomposition",
    "geometry.locate_point",
)
COUNTS = (
    "core.circuits", "core.cocircuits", "core.bases", "core.independent_sets",
    "reversal.classes", "serialize.table_bytes", "verification.pairs_checked",
    "bijection.table_cache_entries",
    "signatures.pair_cache_hits", "signatures.pair_cache_misses",
)
REFUSALS = ("signatures.support_cap", "fourier_motzkin.row_limit", "geometry.zonotope_rank")
QUERY_LATENCY = (
    ("first_query_s", "s"), ("query_p50_ms", "ms"), ("query_p99_ms", "ms"),
    ("matroid_query_p50_ms", "ms"), ("matroid_query_p99_ms", "ms"),
    ("query_samples", "count"),
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SELF_TIME_LAYERS}
    units.update({f"{name}_ms": "ms" for name in CALL_TIME_LAYERS})
    units.update({name: "count" for name in COUNTS})
    units.update({f"{name}_refused": "count" for name in REFUSALS})
    units.update({f"bijection.{name}": unit for name, unit in QUERY_LATENCY})
    units["trace.overhead_s"] = "s"
    return units


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(manifest: Path, src: Path, trace: bool, run_id: str, spans: Path) -> dict:
    """One fresh process; returns its result with setup_s measured from spawn."""
    cmd = [sys.executable, str(HERE / "child.py"), "--manifest", str(manifest),
           "--trace", str(int(trace)), "--run-id", run_id, "--spans", str(spans)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(src), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return {"run_id": run_id, "crashed": proc.returncode, "problems": ["child crashed"]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_done") - spawned
    result["trace"] = trace
    return result


def end_to_end(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "run_s": statistics.median(r["run_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
        "served_share": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Layer numbers from the traced children's spans and counts."""
    units = per_layer_units()
    values = dict.fromkeys(units, 0)
    self_s = {name: [] for name in SELF_TIME_LAYERS}
    calls = {name: [] for name in CALL_TIME_LAYERS}
    for r in traced:
        spans = json.loads(Path(r["spans"]).read_text(encoding="utf-8"))["spans"]
        own = tracing.self_times(spans)
        for name in SELF_TIME_LAYERS:
            self_s[name].append(own.get(name, 0.0))
        for name, durations in tracing.call_durations(spans).items():
            if name in calls:
                calls[name] += durations
    for name, per_child in self_s.items():
        values[f"{name}_s"] = statistics.median(per_child)
    for name, durations in calls.items():
        if durations:
            values[f"{name}_ms"] = 1e3 * statistics.median(durations)
    last = traced[-1]
    for name in COUNTS:
        values[name] = last["counts"][name]
    for name in REFUSALS:
        values[f"{name}_refused"] = last["refused"].get(name, 0)
    if "latency" in plain[0]:
        for name, _ in QUERY_LATENCY:
            values[f"bijection.{name}"] = statistics.median(r["latency"][name] for r in plain)
    values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                  - statistics.median(r["run_s"] for r in plain))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oribij benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "oribij" / "__init__.py").is_file():
        print(f"error: no oribij package under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(src / "oribij"), quiet=1)

    spec = WORKLOADS[args.workload]
    work = root / ".bench_work" / args.workload / f"seed-{args.seed}"
    manifest = instances.write_inputs(
        work, instances.workload_inputs(args.workload, args.seed, spec))

    # Closed loop of children, one at a time.  Another child starts only if
    # the slowest one so far would still end within --seconds; when tracing,
    # plain and traced children alternate so the overhead compares children
    # of the same run.
    results: list[dict] = []
    started = time.monotonic()
    slowest = 0.0
    while True:
        k = len(results)
        trace = bool(args.trace) and k % 2 == 1
        spans = work / f"spans-{k}.json"
        began = time.monotonic()
        results.append(run_child(manifest, src, trace, f"{args.workload}-{args.seed}-{k}", spans))
        results[-1]["spans"] = str(spans)
        now = time.monotonic()
        slowest = max(slowest, now - began)
        if "crashed" in results[-1]:
            break
        enough = not args.trace or len(results) >= 2
        if enough and now - started + slowest > args.seconds:
            break

    problems = [f"{r['run_id']}: {p}" for r in results for p in r["problems"]]
    print(json.dumps({
        "environment": environment(args),
        "children": [{k: r.get(k) for k in CHILD_DETAIL} for r in results],
        "problems": problems[:20],
    }, sort_keys=True))
    correct = not problems
    metrics = {}
    if correct:
        plain = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        metrics = per_layer(traced, plain) if args.trace else end_to_end(results)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r.get("attempted", 0) for r in results)),
        "failed": sum(r.get("failed", 0) for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
