"""Tests of the benchmark itself: inputs, checks, tracing, failure exits.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from oribij import (  # noqa: E402
    BijectionTable,
    CIRCUIT,
    COCIRCUIT,
    enumerate_bases,
    enumerate_signed_circuits,
    enumerate_signed_cocircuits,
    rep_for,
    signature_from_weights,
)
from oribij import geometry, serialize  # noqa: E402
from oribij.core import closure_mask_partition  # noqa: E402
from oribij.serialize import load_graph_obj, table_json_obj  # noqa: E402


def small_manifest(tmp_path, workload, spec, seed=7):
    return instances.write_inputs(tmp_path, instances.workload_inputs(workload, seed, spec))


# -- inputs -----------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    spec = run.WORKLOADS["pool-small"]
    a = instances.workload_inputs("pool-small", 3, spec)
    assert a == instances.workload_inputs("pool-small", 3, spec)
    assert a != instances.workload_inputs("pool-small", 4, spec)


def test_ladder_sizes():
    sizes = {name: instances.element_count(*instances.ladder_instance(name))
             for name in instances.LADDER}
    assert sizes == {"K4": 6, "W4": 8, "K5": 10, "R10": 10, "W6": 12,
                     "grid3x3": 12, "W7": 14, "W8": 16}
    recorded = json.loads((BENCH / "recorded.json").read_text())
    assert set(recorded["ladder"]) == set(instances.LADDER)


def test_recorded_ladder_counts():
    """Workloads check the counts of their own instances; this checks all."""
    recorded = json.loads((BENCH / "recorded.json").read_text())["ladder"]
    for name in instances.LADDER:
        kind, doc = instances.ladder_instance(name)
        rep = (rep_for(load_graph_obj(doc)) if kind == "graph"
               else serialize.load_matroid_obj(doc))
        got = {
            "circuits": len(enumerate_signed_circuits(rep)),
            "cocircuits": len(enumerate_signed_cocircuits(rep)),
            "bases": len(enumerate_bases(rep)),
            "classes": len(closure_mask_partition(rep, "cycle-cocycle")),
        }
        assert got == recorded[name], name


def test_weights_never_tie_and_twins_match_the_package():
    inputs = instances.workload_inputs("pool-small", 11, run.WORKLOADS["pool-small"])
    for inst in inputs["instances"]:
        if inst["kind"] != "graph":
            continue
        rep = rep_for(load_graph_obj(inst["doc"]))
        assert [list(row) for row in rep.matrix] == inst["twin"]["matrix"]
        for side, vecs in (("circuit", enumerate_signed_circuits(rep)),
                           ("cocircuit", enumerate_signed_cocircuits(rep))):
            w = serialize.parse_weights(",".join(inst["signature"][side]["weights"]))
            assert all(sum(a * b for a, b in zip(w, v.entries)) != 0 for v in vecs)


# -- checks catch corrupted outputs ------------------------------------------

def k4_rows():
    _, doc = instances.ladder_instance("K4")
    g = load_graph_obj(doc)
    rep = rep_for(g)
    w = instances.generic_weights(random.Random(1), rep.element_count)
    sig = signature_from_weights(rep, serialize.parse_weights(",".join(w)), CIRCUIT)
    cosig = signature_from_weights(rep, serialize.parse_weights(",".join(w)), COCIRCUIT)
    rows = table_json_obj(BijectionTable.build(rep, sig, cosig))["rows"]
    return rows, {"bases": 16, "independent": 38, "spanning": 38, "total": 64}


def test_table_check_accepts_a_correct_table_and_catches_corruption():
    rows, counts = k4_rows()
    assert checks.table_rows(rows, 6, counts) == []
    dup = [dict(r) for r in rows]
    dup[5]["subgraph"] = dup[6]["subgraph"]
    assert checks.table_rows(dup, 6, counts)
    retag = [dict(r) for r in rows]
    retag[0]["tag"] = "general" if retag[0]["tag"] != "general" else "basis"
    assert checks.table_rows(retag, 6, counts)
    assert checks.table_rows(rows[:-1], 6, counts)


def test_simple_checks_catch_corruption():
    assert checks.digest("abc", None) == []
    good = hashlib.sha256(b"abc").hexdigest()
    assert checks.digest("abc", good) == []
    assert checks.digest("abd", good)
    assert checks.verify_report({"passed": True}) == []
    assert checks.verify_report({"passed": False, "suites": [{"name": "x", "passed": False}]})
    assert checks.query_images([1, 2], [1, 2]) == []
    assert checks.query_images([1, 3], [1, 2])
    assert checks.acyclic_witness(True, (1, 1), [(1, 0), (0, 1)]) == []
    assert checks.acyclic_witness(True, (1, 0), [(1, 0), (0, 1)])
    assert checks.acyclic_witness(False, None, [(1, 0)])
    assert checks.zonotope_count(1 + 3 * 2 + 3 * 4, [0, 1, 1, 1, 2, 2, 2], 2) == []
    assert checks.zonotope_count(20, [0, 1, 1, 1, 2, 2, 2], 2)
    assert checks.class_partition([[0, 1], [2, 3]], [[1, 0], [3, 2]], 2, 2) == []
    assert checks.class_partition([[0], [1, 2, 3]], [[0, 1], [2, 3]], 2, 2)
    assert checks.class_partition([[0, 1], [2, 3]], [[0, 1], [2, 3]], 2, 3)


def test_child_fails_a_run_whose_zonotope_count_is_wrong(tmp_path, monkeypatch):
    spec = {"ladder": ["K4"], "pool": 2, "twins": True}
    manifest = small_manifest(tmp_path, "pool-small", spec)
    assert child.run(manifest, False, "ok")["problems"] == []
    real = geometry.dilated_zonotope_lattice_count
    monkeypatch.setattr(geometry, "dilated_zonotope_lattice_count",
                        lambda *a, **k: real(*a, **k) + 1)
    assert any("zonotope count" in p for p in child.run(manifest, False, "bad")["problems"])


def test_child_fails_a_run_whose_query_image_is_wrong(tmp_path, monkeypatch):
    from oribij import bijection

    spec = {"ladder": ["W4"], "twins": True, "queries": 40}
    manifest = small_manifest(tmp_path, "query-w7", spec)
    assert child.run(manifest, False, "ok")["problems"] == []
    real = bijection.orientation_to_subgraph
    monkeypatch.setattr(bijection, "orientation_to_subgraph",
                        lambda *a: real(*a) ^ frozenset({0}))
    assert any("query images" in p for p in child.run(manifest, False, "bad")["problems"])


def test_child_fails_a_run_whose_table_is_wrong(tmp_path, monkeypatch):
    spec = {"ladder": ["W4"]}
    manifest = small_manifest(tmp_path, "table-w7", spec, seed=2)
    assert child.run(manifest, False, "ok")["problems"] == []
    real = serialize.table_json_obj

    def corrupt(table):
        obj = real(table)
        obj["rows"][1]["subgraph"] = obj["rows"][0]["subgraph"]
        return obj

    monkeypatch.setattr(serialize, "table_json_obj", corrupt)
    assert child.run(manifest, False, "bad")["problems"]


def test_cap_refusals_are_counted_and_named(tmp_path):
    spec = {"ladder": ["K5"], "ladder_weights": "canonical", "twins": True}
    manifest = small_manifest(tmp_path, "pool-small", spec)
    result = child.run(manifest, False, "caps")
    assert result["problems"] == []
    # K5: 37 circuit supports exceed the 20-support cap, the 15 cocircuit
    # supports hit the Fourier-Motzkin row limit, and rank 4 exceeds the
    # zonotope rank cap; each on both the graph and the matrix rep.
    assert result["refused"] == {"signatures.support_cap": 2,
                                 "fourier_motzkin.row_limit": 2,
                                 "geometry.zonotope_rank": 4}
    assert result["failed"] == 8


# -- tracing ----------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1], ["b", 6.0, 7.0, 0]]
    assert tracing.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracing.call_durations(spans)["b"] == [3.0, 1.0]


def test_traced_child_records_nested_layer_spans(tmp_path):
    spec = {"ladder": ["W4"], "samples": 20}
    manifest = small_manifest(tmp_path, "verify-n12", spec)
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--manifest", str(manifest),
         "--trace", "1", "--run-id", "t1", "--spans", str(spans_path)],
        env=run.child_env(ROOT / "src"), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["problems"] == []
    doc = json.loads(spans_path.read_text())
    assert doc["run_id"] == "t1"
    names = {s[0] for s in doc["spans"]}
    assert {"core.independent_sets", "verification.run", "verification.separation",
            "geometry.tiling_forward", "geometry.tiling_complement",
            "geometry.locate_point", "bijection.build", "core.closure"} <= names
    by_index = doc["spans"]
    parents = {by_index[s[3]][0] for s in by_index if s[0] == "verification.separation"}
    assert parents == {"verification.run"}


# -- the command ------------------------------------------------------------

def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pool-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
