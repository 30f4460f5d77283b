import copy
import json
import random
from collections import OrderedDict

import pytest

from oribij import (
    CIRCUIT,
    BijectionTable,
    Graph,
    InputError,
    canonical_signature_pair,
    explicit_signature,
    graph_to_rep,
)
from oribij import bijection, reversal, verification
from oribij.cli import main
from oribij.verification import run_verification, separation_violations

from helpers import matrix_rep, random_connected_multigraph, wheel


def test_battery_passes_on_triangle(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    report = run_verification(triangle_rep, sig, cosig, samples=200, seed=3)
    assert report["passed"]
    assert [s["name"] for s in report["suites"]] == [
        "separation",
        "tiling-sample",
        "count-identities",
        "class-oracle",
        "cell-polynomial-product",
        "cell-polynomial-restricted",
    ]


def test_battery_passes_on_matrix_only_rep(triangle_rep):
    rep = matrix_rep(triangle_rep)
    sig, cosig = canonical_signature_pair(rep)
    report = run_verification(rep, sig, cosig, samples=200, seed=3)
    assert report["passed"]
    counts = next(s for s in report["suites"] if s["name"] == "count-identities")
    assert counts["detail"]["source"] == "direct-enumeration"


def test_corrupted_table_fails_with_counterexample(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    table = BijectionTable.build(triangle_rep, sig, cosig)
    corrupted = copy.copy(table)
    forward = dict(table.forward)
    a, b = 0, 1
    forward[a], forward[b] = forward[b], forward[a]
    corrupted.forward = forward
    report = run_verification(triangle_rep, sig, cosig, samples=50, table=corrupted)
    assert not report["passed"]
    separation = next(s for s in report["suites"] if s["name"] == "separation")
    assert not separation["passed"]
    assert separation["detail"]["violations"]
    assert separation_violations(corrupted)


def _merge_first_two(classes):
    return (tuple(sorted(classes[0] + classes[1])), *classes[2:])


def _split_off_the_last_member(classes):
    i = max(range(len(classes)), key=lambda i: len(classes[i]))
    rest, last = classes[i][:-1], classes[i][-1:]
    return tuple(sorted((*classes[:i], rest, last, *classes[i + 1:])))


@pytest.mark.parametrize("corrupt", [_merge_first_two, _split_off_the_last_member])
@pytest.mark.parametrize("kind", ["cycle", "cocycle", "cycle-cocycle"])
def test_class_oracle_suite_fails_on_a_corrupted_partition(monkeypatch, kind, corrupt):
    rep = graph_to_rep(wheel(4))
    sig, cosig = canonical_signature_pair(rep)
    table = BijectionTable.build(rep, sig, cosig)
    keyed = verification._class_masks
    monkeypatch.setattr(verification, "_class_masks",
                        lambda r, k: corrupt(keyed(r, k)) if k == kind else keyed(r, k))
    report = run_verification(rep, sig, cosig, samples=20, table=table)
    (suite,) = [s for s in report["suites"] if s["name"] == "class-oracle"]
    assert not report["passed"] and not suite["passed"]
    assert suite["detail"] == {"mismatched_kinds": [kind]}


def test_a_verification_partitions_the_joint_classes_once(monkeypatch):
    rep = graph_to_rep(wheel(4))
    sig, cosig = canonical_signature_pair(rep)
    kinds = []
    keyed = reversal._class_masks

    def counted(r, kind):
        kinds.append(kind)
        return keyed(r, kind)

    # the build reads its keys off one label list and partitions nothing
    assert not hasattr(bijection, "_class_masks")
    monkeypatch.setattr(verification, "_class_masks", counted)
    monkeypatch.setattr(reversal, "_TABLE_CACHE", OrderedDict())
    assert run_verification(rep, sig, cosig, samples=20)["passed"]
    assert sorted(kinds) == ["cocycle", "cycle", "cycle-cocycle"]


def test_a_table_of_another_ground_set_is_refused(triangle_rep):
    k4 = graph_to_rep(Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))))
    table = BijectionTable.build(k4, *canonical_signature_pair(k4))
    sig, cosig = canonical_signature_pair(triangle_rep)
    with pytest.raises(InputError):
        run_verification(triangle_rep, sig, cosig, samples=20, table=table)


def test_a_table_of_other_signatures_is_refused(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    (chosen,) = sig.chosen
    reversed_sig = explicit_signature(triangle_rep, CIRCUIT, [-chosen])
    table = BijectionTable.build(triangle_rep, reversed_sig, cosig)
    assert run_verification(triangle_rep, reversed_sig, cosig, samples=20, table=table)["passed"]
    with pytest.raises(InputError):
        run_verification(triangle_rep, sig, cosig, samples=20, table=table)
    with pytest.raises(InputError):
        run_verification(triangle_rep, reversed_sig, sig, samples=20, table=table)


def test_cli_verify_n10_random_graph(capsys, tmp_path):
    import time

    rng = random.Random(105)
    g = random_connected_multigraph(rng, 10)
    path = tmp_path / "g10.json"
    path.write_text(json.dumps({
        "vertices": g.vertex_count,
        "edges": [list(e) for e in g.edges],
    }))
    start = time.perf_counter()
    code = main(["verify", "--graph", str(path), "--samples", "300"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["passed"]
    assert elapsed < 30.0
