import json

import pytest

from oribij.cli import main


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


def test_out_file(capsys, tmp_path, triangle_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify", "--graph", triangle_file, "--samples", "50", "--out", str(target),
    ])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"]


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


def test_disconnected_graph_exits_2(capsys, tmp_path):
    path = tmp_path / "disc.json"
    path.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [2, 3]]}))
    code, _, err = run(capsys, ["table", "--graph", str(path)])
    assert code == 2
