"""One run of one workload, in a fresh process.

Usage: ``python child.py --manifest DIR/manifest.json --trace 0|1 --run-id ID
[--spans PATH]``, with ``src`` on ``PYTHONPATH``.  Prints one JSON object.

The process starts with empty package caches, as a CLI user's does.  It
reads the inputs through the package's CLI loaders, runs the set-up
(parsing, enumeration, signatures), then the workload's main phase as a
closed loop of calls, then checks every output outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

# Functions are looked up on these modules at call time, so the tracer's
# wrappers take effect.
from oribij import (  # noqa: E402
    bijection,
    core,
    errors,
    geometry,
    oracle,
    reversal,
    serialize,
    signatures,
    verification,
)
from tracing import Tracer  # noqa: E402

RECORDED = HERE / "recorded.json"
KINDS = ("cycle", "cocycle", "cycle-cocycle")

# Substrings of CapExceededError messages, mapped to the cap that fired.
CAPS = (
    ("supports exceeds the cap", "signatures.support_cap"),
    ("Fourier-Motzkin row limit", "fourier_motzkin.row_limit"),
    ("zonotope cap", "geometry.zonotope_rank"),
    ("bounding box", "geometry.zonotope_box"),
    ("enumeration cap", "core.element_cap"),
)


class Calls:
    """Closed-loop call accounting: every call is attempted, refusals fail."""

    def __init__(self):
        self.attempted = 0
        self.refused: dict[str, int] = {}

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except errors.CapExceededError as exc:
            cap = next((c for text, c in CAPS if text in str(exc)), "unknown_cap")
        except errors.NonGenericWeightsError:
            cap = "signatures.non_generic"
        self.refused[cap] = self.refused.get(cap, 0) + 1
        return None


class Rep:
    """One representation with its signatures and set-up enumerations."""

    def __init__(self, name, rep, sig_doc):
        self.name, self.rep = name, rep
        self.independent = core.enumerate_independent_sets(rep)
        self.circuits = core.enumerate_signed_circuits(rep)
        self.cocircuits = core.enumerate_signed_cocircuits(rep)
        self.sig, self.cosig = serialize.load_signature_pair(rep, sig_doc)


def _read(directory: Path, name: str) -> dict:
    with open(directory / name, encoding="utf-8") as fh:
        return json.load(fh)


def load_reps(directory: Path, entry: dict) -> list[Rep]:
    """The instance as ``--graph`` or ``--matroid`` input, plus its twin."""
    sig_doc = _read(directory, entry["signature"])
    reps = []
    if "graph" in entry:
        graph = serialize.load_graph_obj(_read(directory, entry["graph"]))
        reps.append(Rep(entry["name"], core.rep_for(graph), sig_doc))
    if "matroid" in entry:
        rep = serialize.load_matroid_obj(_read(directory, entry["matroid"]))
        reps.append(Rep(entry["name"], rep, sig_doc))
    if "twin" in entry:
        rep = serialize.load_matroid_obj(_read(directory, entry["twin"]))
        reps.append(Rep(entry["name"], rep, sig_doc))
    return reps


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


# ---------------------------------------------------------------------------
# workloads: set-up, main phase (timed), checks (untimed)

def setup_reps(directory, manifest):
    return {"reps": [r for entry in manifest["instances"] for r in load_reps(directory, entry)]}


def table_main(state, calls, manifest):
    (r,) = state["reps"]

    def table_command():
        table = bijection.BijectionTable.build(r.rep, r.sig, r.cosig)
        return serialize.dump_json(serialize.table_json_obj(table))

    state["text"] = calls(table_command)


def table_check(state, manifest, recorded):
    (r,) = state["reps"]
    text = state["text"]
    if text is None:
        return []
    g = r.rep.graph
    want = {
        "bases": oracle.tutte(g, 1, 1),
        "independent": oracle.tutte(g, 2, 1),
        "spanning": oracle.tutte(g, 1, 2),
        "total": oracle.tutte(g, 2, 2),
    }
    problems = checks.table_rows(json.loads(text)["rows"], r.rep.element_count, want)
    if manifest["seed"] == recorded["default_seed"]:
        problems += checks.digest(text, recorded["table_sha256"])
    return problems


def verify_main(state, calls, manifest):
    samples = manifest["spec"]["samples"]
    state["reports"] = [
        calls(verification.run_verification, r.rep, r.sig, r.cosig,
              samples=samples, seed=manifest["verify_seed"])
        for r in state["reps"]
    ]
    # Computed, not counted: separation plus the two tiling pair loops.
    state["pairs_checked"] = sum(3 * comb(1 << r.rep.element_count, 2) for r in state["reps"])


def verify_check(state, manifest, recorded):
    problems = []
    for r, report in zip(state["reps"], state["reports"]):
        if report is not None:
            problems += [f"{r.name}: {p}" for p in checks.verify_report(report)]
            problems += checks.equal(f"{r.name} samples", report["samples"],
                                     manifest["spec"]["samples"])
    return problems


def query_setup(directory, manifest):
    state = setup_reps(directory, manifest)
    n = state["reps"][0].rep.element_count
    state["orientations"] = [core.Orientation.from_mask(n, m)
                             for m in manifest["orientations"]]
    return state


def query_main(state, calls, manifest):
    """Closed loop: one query at a time; the first per rep is cold."""
    clock = time.perf_counter
    state["first"], state["latency"], state["images"] = [], [], []
    for r in state["reps"]:
        images, latency = [], []
        for o in state["orientations"]:
            start = clock()
            images.append(calls(bijection.orientation_to_subgraph, r.rep, o, r.sig, r.cosig))
            latency.append(clock() - start)
        state["first"].append(latency[0])
        state["latency"].append(latency[1:])
        state["images"].append(images)


def query_check(state, manifest, recorded):
    problems = []
    graph_rep, matrix_rep = (r.rep for r in state["reps"])
    problems += checks.equal("twin matrix", matrix_rep.matrix, graph_rep.matrix)
    for r, images in zip(state["reps"], state["images"]):
        table = bijection.BijectionTable.build(r.rep, r.sig, r.cosig)
        want = [table.forward[o.mask] for o in state["orientations"]]
        got = [-1 if s is None else core.mask_of(s) for s in images]
        problems += checks.query_images(got, want)
    return problems


def query_latency(state) -> dict:
    graph, matroid = state["latency"]
    return {
        "first_query_s": sum(state["first"]),
        "query_p50_ms": 1e3 * percentile(graph, 50),
        "query_p99_ms": 1e3 * percentile(graph, 99),
        "matroid_query_p50_ms": 1e3 * percentile(matroid, 50),
        "matroid_query_p99_ms": 1e3 * percentile(matroid, 99),
        "query_samples": len(graph) + len(matroid),
    }


def pool_setup(directory, manifest):
    """Weight-derived signatures plus their explicit form, per rep."""
    state = setup_reps(directory, manifest)
    for r in state["reps"]:
        doc = {}
        for side, sig in (("circuit", r.sig), ("cocircuit", r.cosig)):
            doc[side] = {"explicit": [
                {"support": sorted(v.support), "signs": [v.entries[e] for e in sorted(v.support)]}
                for v in sig.chosen
            ]}
        r.explicit = serialize.load_signature_pair(r.rep, doc)
    return state


def ehrhart_command(rep, sig, cosig):
    """The ``oribij ehrhart`` computation: restricted cells minus independent sets."""
    table = bijection.BijectionTable.build(rep, sig, cosig)
    independent = geometry.independent_set_polynomial(rep)
    compatible = [m for m in rep.orientation_universe()
                  if table.tags[m] in ("basis", "forest")]
    restricted = geometry.cell_count_polynomial(table, compatible)
    return restricted - independent


def pool_main(state, calls, manifest):
    for r in state["reps"]:
        rep, n = r.rep, r.rep.element_count
        out = r.out = {}
        out["acyclic"] = [calls(signatures.is_acyclic, rep, s) for s in r.explicit]
        out["ehrhart"] = calls(ehrhart_command, rep, r.sig, r.cosig)
        out["zonotope"] = {q: calls(geometry.dilated_zonotope_lattice_count, rep, [q] * n)
                           for q in (1, 2)}
        out["classes"] = {kind: (calls(reversal.enumerate_classes, rep, kind),
                                 calls(oracle.reversal_closure_classes, rep, kind))
                          for kind in KINDS}
        if rep.graph is not None:
            out["tutte"] = {xy: calls(oracle.tutte, rep.graph, *xy)
                            for xy in ((2, 1), (1, 2), (1, 1))}


def _masks(classes):
    return [[o.mask for o in cls] for cls in classes]


def pool_check(state, manifest, recorded):
    problems = []
    for r in state["reps"]:
        rep, out, n = r.rep, r.out, r.rep.element_count
        label = f"{r.name}{'' if rep.graph is not None else ' (matrix)'}"
        found = []
        for result, sig in zip(out["acyclic"], r.explicit):
            if result is not None:
                found += checks.acyclic_witness(result.acyclic, result.witness,
                                                [v.entries for v in sig.chosen])
        if out["ehrhart"] is not None and not out["ehrhart"].is_zero():
            found.append("ehrhart difference is not zero")
        sizes = [len(s) for s in r.independent]
        for q, count in out["zonotope"].items():
            if count is not None:
                found += checks.zonotope_count(count, sizes, q)
        bases = [sum(1 << e for e in s) for s in r.independent if len(s) == rep.rank]
        spanning = sum(1 for m in range(1 << n) if any(b & ~m == 0 for b in bases))
        want = {"cycle": len(sizes), "cocycle": spanning, "cycle-cocycle": len(bases)}
        for kind, (ours, oracle) in out["classes"].items():
            if ours is not None and oracle is not None:
                found += [f"{kind}: {p}" for p in
                          checks.class_partition(_masks(ours), _masks(oracle), n, want[kind])]
        for (x, y), value in out.get("tutte", {}).items():
            point = {(2, 1): "cycle", (1, 2): "cocycle", (1, 1): "cycle-cocycle"}[(x, y)]
            if value is not None:
                found += checks.equal(f"T({x},{y})", value, want[point])
        problems += [f"{label}: {p}" for p in found]
    return problems


WORKLOADS = {
    "table-w7": (setup_reps, table_main, table_check),
    "verify-n12": (setup_reps, verify_main, verify_check),
    "query-w7": (query_setup, query_main, query_check),
    "pool-small": (pool_setup, pool_main, pool_check),
}


# ---------------------------------------------------------------------------

def layer_counts(state, recorded) -> tuple[dict, list[str]]:
    """Counts read after the run, plus the ladder-count checks."""
    counts = dict.fromkeys(("core.circuits", "core.cocircuits", "core.bases",
                            "core.independent_sets", "reversal.classes"), 0)
    problems = []
    for r in state["reps"]:
        got = {
            "circuits": len(r.circuits),
            "cocircuits": len(r.cocircuits),
            "bases": len(core.enumerate_bases(r.rep)),
            "classes": len(core.closure_mask_partition(r.rep, "cycle-cocycle")),
        }
        for key, value in got.items():
            counts["reversal.classes" if key == "classes" else f"core.{key}"] += value
        counts["core.independent_sets"] += len(r.independent)
        if r.name in recorded["ladder"]:
            problems += checks.equal(f"{r.name} ladder counts", got, recorded["ladder"][r.name])
    text = state.get("text")
    counts["serialize.table_bytes"] = len(text.encode("utf-8")) if text else 0
    counts["verification.pairs_checked"] = state.get("pairs_checked", 0)
    counts["bijection.table_cache_entries"] = len(bijection._TABLE_CACHE)
    info = signatures.canonical_signature_pair.cache_info()
    counts["signatures.pair_cache_hits"] = info.hits
    counts["signatures.pair_cache_misses"] = info.misses
    return counts, problems


def run(manifest_path: Path, trace: bool, run_id: str, spans_path: Path | None = None) -> dict:
    tracer = None
    if trace:
        tracer = Tracer(run_id)
        tracer.install()
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    setup, main, check = WORKLOADS[manifest["workload"]]
    state = setup(manifest_path.parent, manifest)
    setup_done = time.monotonic()
    setup_cpu = time.process_time()

    calls = Calls()
    start, start_cpu = time.perf_counter(), time.process_time()
    main(state, calls, manifest)
    run_s = time.perf_counter() - start
    run_cpu_s = time.process_time() - start_cpu
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False

    problems = check(state, manifest, recorded)
    counts, ladder_problems = layer_counts(state, recorded)
    result = {
        "run_id": run_id,
        "setup_done": setup_done,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "setup_cpu_s": setup_cpu,
        "rss_mb": rss_mb,
        "attempted": calls.attempted,
        "failed": sum(calls.refused.values()),
        "refused": calls.refused,
        "problems": problems + ladder_problems,
        "counts": counts,
    }
    if "latency" in state:
        result["latency"] = query_latency(state)
    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    result = run(args.manifest, bool(args.trace), args.run_id, args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
