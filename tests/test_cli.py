import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oribij
from oribij import (
    CIRCUIT,
    COCIRCUIT,
    Graph,
    RegularMatroidRep,
    canonical_weights,
    is_acyclic,
    signature_from_weights,
)
from oribij import core
from oribij.cli import main

from helpers import table_oracle


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[2, 0], [0, 1], [1, 2]]}))
    return str(path)


@pytest.fixture
def theta_file(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]}))
    return str(path)


@pytest.fixture
def triangle_matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"matrix": [[1, -1, 0], [0, 1, -1]]}))
    return str(path)


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, ["table", "--graph", triangle_file])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 8
    assert sum(1 for r in obj["rows"] if r["tag"] == "basis") == 3
    subgraphs = {tuple(r["subgraph"]) for r in obj["rows"]}
    assert len(subgraphs) == 8


def test_table_single_edge(capsys, tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    code, out, _ = run(capsys, ["table", "--graph", str(path)])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 2


def test_table_with_weight_flags(capsys, triangle_file):
    code, out, _ = run(capsys, [
        "table", "--graph", triangle_file,
        "--cycle-weights", "1,1,1", "--cocycle-weights", "1,-2,0",
    ])
    assert code == 0
    assert len(json.loads(out)["rows"]) == 8


def test_non_acyclic_signature_exits_2(capsys, tmp_path, theta_file):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({
        "circuit": {"explicit": [
            {"support": [0, 1], "signs": [1, -1]},
            {"support": [1, 2], "signs": [1, -1]},
            {"support": [0, 2], "signs": [-1, 1]},
        ]},
        "cocircuit": {"weights": [1, 2, 4]},
    }))
    code, _, err = run(capsys, ["table", "--graph", theta_file, "--signature", str(sig)])
    assert code == 2
    assert "signature not acyclic" in err


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.json"
    edges = [[i, j] for i in range(5) for j in range(i + 1, 5)]
    path.write_text(json.dumps({"vertices": 5, "edges": edges}))
    return str(path)


@pytest.mark.parametrize("flags", [
    ["--cycle-weights"], ["--cocycle-weights"], ["--cycle-weights", "--cocycle-weights"],
])
def test_tied_weights_run_as_their_lexicographic_refinement(capsys, k5_file, flags):
    # all-ones weights tie on K5; 3^10 (1, ..., 1) + (3^9, ..., 3, 1) never does
    ones = ",".join(["1"] * 10)
    refined = ",".join(str(3 ** 10 + 3 ** (9 - j)) for j in range(10))
    tied = [arg for flag in flags for arg in (flag, ones)]
    code, out, err = run(capsys, ["table", "--graph", k5_file, *tied])
    assert (code, err) == (0, "")
    want = run(capsys, ["table", "--graph", k5_file,
                        *[arg for flag in flags for arg in (flag, refined)]])
    assert (code, out, err) == want
    code, out, _ = run(capsys, ["verify", "--graph", k5_file, "--samples", "200", *tied])
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("last_signs, code", [([1, -1], 0), ([-1, 1], 2)])
def test_signature_check_decides_each_side_once(
    capsys, tmp_path, theta_file, monkeypatch, last_signs, code
):
    from oribij import cli

    sides = []

    def counted(rep, sig):
        sides.append(sig.side)
        return is_acyclic(rep, sig)

    monkeypatch.setattr(cli, "is_acyclic", counted)
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({
        "circuit": {"explicit": [
            {"support": [0, 1], "signs": [1, -1]},
            {"support": [1, 2], "signs": [1, -1]},
            {"support": [0, 2], "signs": last_signs},
        ]},
        "cocircuit": {"explicit": [{"support": [0, 1, 2], "signs": [1, 1, 1]}]},
    }))
    got, out, err = run(capsys, ["signature-check", "--graph", theta_file, "--signature", str(sig)])
    assert got == code
    if code == 0:
        assert sides == ["circuit", "cocircuit"]
        assert json.loads(out)["circuit"]["witness"] is not None
    else:
        # the cyclic circuit side is refused before the cocircuit side is checked
        assert sides == ["circuit"]
        assert out == "" and "signature not acyclic" in err


_TRIANGLE_CYCLE = {"explicit": [{"support": [0, 1, 2], "signs": [1, 1, 1]}]}
_TRIANGLE_COCYCLE = {"weights": [1, 2, 4]}


_BAD_DOCUMENT = "error: bad signature document: "


@pytest.mark.parametrize("circuit, cocircuit, message", [
    # -1 would wrap to the last element, 9 is past it
    ({"explicit": [{"support": [0, 1, -1], "signs": [1, 1, 1]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    ({"explicit": [{"support": [0, 1, 9], "signs": [1, 1, 1]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    ({"explicit": [{"support": [0, 1, 2]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    ({"explicit": [{"support": [0, 1, 2], "signs": [1, 1]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    # a repeated element would keep its last sign
    ({"explicit": [{"support": [0, 0, 1, 2], "signs": [-1, 1, 1, 1]}]}, _TRIANGLE_COCYCLE,
     _BAD_DOCUMENT),
    ({"explicit": [{"support": [0, 1, 2], "signs": [1, 1, 1.5]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    ({"explicit": [{"support": [0, 1.0, 2], "signs": [1, 1, 1]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    ({"explicit": [{"support": [0, 1, 2], "signs": [1, True, 1]}]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    ({"explicit": [[0, 1, 2]]}, _TRIANGLE_COCYCLE, _BAD_DOCUMENT),
    (_TRIANGLE_CYCLE, {"weights": None}, _BAD_DOCUMENT),
    (_TRIANGLE_CYCLE, {"weights": ["x", 2, 3]}, _BAD_DOCUMENT),
    (_TRIANGLE_CYCLE, {"weights": ["1/0", 2, 3]}, _BAD_DOCUMENT),
    (["ab", "cde"], _TRIANGLE_COCYCLE, "error: signature file needs"),
])
def test_bad_signature_document_exits_2(
    capsys, tmp_path, triangle_file, circuit, cocircuit, message
):
    sig = tmp_path / "sig.json"
    sig.write_text(json.dumps({"circuit": circuit, "cocircuit": cocircuit}))
    code, out, err = run(capsys, ["table", "--graph", triangle_file, "--signature", str(sig)])
    assert code == 2
    assert out == "" and err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, doc", [
    ("--matroid", {"matrix": [[1, 0.5, 1]]}),
    ("--matroid", {"matrix": [[1.9, 1]]}),
    ("--matroid", {"matrix": [[1.0, 1]]}),
    ("--matroid", {"matrix": [[True, 0]]}),
    ("--matroid", {"matrix": [["1", 0]]}),
    ("--graph", {"vertices": 3, "edges": [[2, 0], [0, 1.7], [1, 2]]}),
    ("--graph", {"vertices": 3.0, "edges": [[2, 0], [0, 1], [1, 2]]}),
    ("--graph", {"vertices": 3, "edges": [[2, 0], [0, True], [1, 2]]}),
])
def test_non_integer_json_numbers_exit_2(capsys, tmp_path, flag, doc):
    # int() would truncate these and describe a different graph or matrix
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["classes", flag, str(path)])
    assert code == 2
    assert out == "" and err.startswith("error: bad ")
    assert "is not an integer" in err


@pytest.mark.parametrize("matrix", [[[]], [[], []]])
def test_empty_matrix_rows_exit_2(capsys, tmp_path, matrix):
    # the rows are refused by name, not as a rank failure
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, ["classes", "--matroid", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: matroid matrix rows must not be empty\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["table", "--graph", "/nonexistent/x.json"])
    assert code == 2


def test_cap_exceeded_exits_3(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "vertices": 2, "edges": [[0, 1]] * 17,
    }))
    code, _, err = run(capsys, ["table", "--graph", str(path)])
    assert code == 3


@pytest.mark.parametrize("kind", ["cycle", "cocycle", "cycle-cocycle"])
def test_classes_past_the_cap_exits_3(capsys, tmp_path, kind):
    # classes partitions masks without enumerate_classes, so the CLI checks the cap
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]] * 17}))
    code, out, err = run(capsys, ["classes", "--graph", str(path), "--kind", kind])
    assert (code, out) == (3, "")
    assert "enumeration cap" in err


def test_verify_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, [
        "verify", "--graph", triangle_file, "--samples", "300", "--seed", "5",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["passed"]
    assert len(report["suites"]) == 6
    assert report["seed"] == 5


def test_verify_is_deterministic(capsys, triangle_file):
    _, first, _ = run(capsys, ["verify", "--graph", triangle_file, "--samples", "100"])
    _, second, _ = run(capsys, ["verify", "--graph", triangle_file, "--samples", "100"])
    assert first == second


def test_classes_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, ["classes", "--graph", triangle_file, "--kind", "cycle-cocycle"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 3
    assert obj["tutte_count"] == 3


def test_classes_cycle_kind(capsys, triangle_file):
    code, out, _ = run(capsys, ["classes", "--graph", triangle_file, "--kind", "cycle"])
    assert code == 0
    assert json.loads(out)["count"] == 7


def test_classes_tutte_mismatch_exits_1(capsys, triangle_file, monkeypatch):
    from oribij import cli

    monkeypatch.setattr(cli, "tutte", lambda graph, x, y: 8)
    code, out, _ = run(capsys, ["classes", "--graph", triangle_file, "--kind", "cycle"])
    obj = json.loads(out)
    assert (code, obj["count"], obj["tutte_count"]) == (1, 7, 8)


def test_invariant_violation_exits_1(capsys, triangle_file, monkeypatch):
    from oribij import cli
    from oribij.errors import InvariantViolationError

    def broken(*args, **kwargs):
        raise InvariantViolationError("forward map is not a bijection")

    monkeypatch.setattr(cli.BijectionTable, "build", broken)
    code, out, err = run(capsys, ["table", "--graph", triangle_file])
    assert (code, out) == (1, "")
    assert err == "internal invariant violated: forward map is not a bijection\n"


def test_ehrhart_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, ["ehrhart", "--graph", triangle_file])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["independent_set_polynomial"]) == 7
    assert obj["difference"] == []


def test_signature_check(capsys, triangle_file):
    code, out, _ = run(capsys, [
        "signature-check", "--graph", triangle_file,
        "--cycle-weights", "1,1,1", "--cocycle-weights", "1,-2,0",
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["circuit"]["acyclic"] and obj["cocircuit"]["acyclic"]
    assert obj["circuit"]["witness"] is not None


def test_graph_and_matroid_paths_agree(capsys, triangle_file, triangle_matrix_file):
    _, graph_out, _ = run(capsys, ["table", "--graph", triangle_file])
    _, matrix_out, _ = run(capsys, ["table", "--matroid", triangle_matrix_file])
    assert graph_out == matrix_out
    _, graph_cls, _ = run(capsys, ["classes", "--graph", triangle_file, "--kind", "cycle"])
    _, matrix_cls, _ = run(capsys, ["classes", "--matroid", triangle_matrix_file, "--kind", "cycle"])
    assert json.loads(graph_cls)["count"] == json.loads(matrix_cls)["count"]
    _, graph_ehr, _ = run(capsys, ["ehrhart", "--graph", triangle_file])
    _, matrix_ehr, _ = run(capsys, ["ehrhart", "--matroid", triangle_matrix_file])
    assert graph_ehr == matrix_ehr


def test_dot_output(capsys, triangle_file):
    code, out, _ = run(capsys, ["table", "--graph", triangle_file, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert "dashed" in out and "solid" in out


def test_dot_needs_graph(capsys, triangle_matrix_file):
    code, _, err = run(capsys, ["table", "--matroid", triangle_matrix_file, "--format", "dot"])
    assert code == 2


def test_csv_output(capsys, triangle_file):
    code, out, _ = run(capsys, ["table", "--graph", triangle_file, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orientation,subgraph,tag"
    assert len(lines) == 9


def test_table_out_file_equals_stdout(capsys, tmp_path, triangle_file):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, ["table", "--graph", triangle_file])
    assert code == 0
    code, nothing, _ = run(capsys, ["table", "--graph", triangle_file, "--out", str(target)])
    assert (code, nothing) == (0, "")
    assert target.read_text(encoding="utf-8") == out == json.dumps(
        json.loads(out), sort_keys=True, indent=2) + "\n"


def test_out_file(capsys, tmp_path, triangle_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify", "--graph", triangle_file, "--samples", "50", "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"]


def test_huge_vertex_count_exits_2_before_the_union_find(capsys, tmp_path, monkeypatch):
    def union_find(vertex_count, edges):
        raise AssertionError("the union-find ran")

    monkeypatch.setattr(core, "_components", union_find)
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"vertices": 4 * 10 ** 6, "edges": [[0, 1]]}))
    code, _, err = run(capsys, ["table", "--graph", str(path)])
    assert code == 2
    assert err == "error: graph must be connected\n"


def test_single_vertex_graph_loops_fast_path(capsys, tmp_path):
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0], [0, 0]]}))
    code, out, _ = run(capsys, ["table", "--graph", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 4
    subgraphs = {tuple(r["subgraph"]) for r in obj["rows"]}
    assert len(subgraphs) == 4


@pytest.mark.parametrize("matrix", [
    [[1, 1, 1], [1, -1, 0]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
])
@pytest.mark.parametrize("command", ["verify", "table"])
def test_non_tu_matrix_exits_2(capsys, tmp_path, matrix, command):
    path = tmp_path / "non_tu.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, _, err = run(capsys, [command, "--matroid", str(path), "--samples", "50"])
    assert code == 2
    assert "not totally unimodular" in err


def test_non_tu_matrix_cocycle_classes_exit_2(capsys, tmp_path):
    path = tmp_path / "non_tu.json"
    path.write_text(json.dumps({"matrix": [[1, 1, 1], [1, -1, 0]]}))
    code, _, err = run(capsys, ["classes", "--matroid", str(path), "--kind", "cocycle"])
    assert code == 2
    assert "not totally unimodular" in err


@pytest.mark.parametrize("matrix", [
    [[1, 1, 1], [1, -1, 0]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    [[1, 0, 1, 1], [0, 1, 1, -1]],
])
def test_non_tu_matrix_cycle_classes_exit_2(capsys, tmp_path, matrix):
    # the check at load refuses the matrix before any enumeration
    path = tmp_path / "non_tu.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, _, err = run(capsys, ["classes", "--matroid", str(path), "--kind", "cycle"])
    assert code == 2
    assert "not totally unimodular" in err


@pytest.mark.parametrize("matrix", [
    # unimodular but not TU: naive pivoting from A meets a 2 on basis {1, 2, 3}
    [[0, 1, 1, -1], [-1, -1, 1, 0], [-1, -1, 0, 0]],
    # one basis, of determinant -1; naive pivoting meets a -2 on it
    [[1, 1, 0], [1, -1, 1], [0, 1, 0]],
])
def test_matrix_accepted_at_load_is_accepted_by_every_command(capsys, tmp_path, matrix):
    path = tmp_path / "unimodular.json"
    path.write_text(json.dumps({"matrix": matrix}))
    commands = [["table"], ["verify"], ["ehrhart"], ["signature-check"]]
    commands += [["classes", "--kind", kind] for kind in ("cycle", "cocycle", "cycle-cocycle")]
    outputs = {}
    for command in commands:
        code, out, err = run(capsys, [command[0], "--matroid", str(path), *command[1:]])
        assert (code, err) == (0, ""), command
        outputs[command[0]] = json.loads(out)
    assert outputs["verify"]["passed"]
    rep = RegularMatroidRep.from_rows(matrix)
    n = rep.element_count
    sig, cosig = (signature_from_weights(rep, canonical_weights(n), side)
                  for side in (CIRCUIT, COCIRCUIT))
    forward, tags = table_oracle(matrix, n, [v.entries for v in sig.chosen],
                                 [v.entries for v in cosig.chosen])
    rows = outputs["table"]["rows"]
    assert len(rows) == 1 << n
    for row in rows:
        m = sum(1 << j for j, bit in enumerate(row["orientation"]) if bit)
        assert row["subgraph"] == [j for j in range(n) if forward[m] >> j & 1]
        assert row["tag"] == tags[m]


def test_matroid_past_the_element_cap_exits_3(capsys, tmp_path):
    # [I | I] with 40 columns: the load check would face C(40, 20) - 1 minors
    matrix = [[1 if j % 20 == i else 0 for j in range(40)] for i in range(20)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"matrix": matrix}))
    code, _, _ = run(capsys, ["table", "--matroid", str(path)])
    assert code == 3


def test_negative_samples_exit_2(capsys, triangle_file):
    code, out, err = run(capsys, ["verify", "--graph", triangle_file, "--samples", "-5"])
    assert code == 2
    assert out == ""
    assert "sample count" in err


def test_zero_samples_still_verify(capsys, triangle_file):
    code, out, _ = run(capsys, ["verify", "--graph", triangle_file, "--samples", "0"])
    assert code == 0
    assert json.loads(out)["samples"] == 0


def test_disconnected_graph_exits_2(capsys, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [2, 3]]}))
    code, _, err = run(capsys, ["table", "--graph", str(path)])
    assert code == 2


def test_the_package_runs_as_a_module():
    # from a checkout, with the package's parent on the path and nothing installed
    env = dict(os.environ, PYTHONPATH=str(Path(oribij.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "oribij", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")
