"""Write ``tests/data/cli_corpus.json``: what each CLI run printed and returned.

The corpus maps each run, keyed by its command line, to its exit code and the
SHA-256 of its stdout and stderr.  ``tests/test_cli_corpus.py`` replays every
entry in-process through ``cli.main`` and names each run that differs.

Run from the root of a checkout, against that checkout's source:

    PYTHONPATH=src python tests/make_cli_corpus.py            # every run, anew
    PYTHONPATH=src python tests/make_cli_corpus.py RUN ...    # only these runs

Given runs (quoted command lines, as the corpus keys them) replace or add
their own entries and keep all others, so a change that alters some output on
purpose regenerates only those entries.  Every run reads its input files by
relative name from the working directory, which ``write_inputs`` fills, so no
stderr line names a temporary path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from oribij import canonical_signature_pair, graph_to_rep
from oribij.cli import main

from helpers import R10_MATRIX, complete_graph, grid, wheel

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

GRAPHS = {"K4": complete_graph(4), "W4": wheel(4), "K5": complete_graph(5),
          "W6": wheel(6), "grid3x3": grid(3, 3)}


def _graph_doc(g):
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}


def _explicit_pair(rep):
    """The canonical signature pair of rep as an explicit --signature document."""
    return {sig.side: {"explicit": [
        {"support": sorted(vec.support), "signs": [vec.entries[e] for e in sorted(vec.support)]}
        for vec in sig.chosen]} for sig in canonical_signature_pair(rep)}


def _inputs() -> dict[str, object]:
    """File name -> JSON document (a str is written as it is)."""
    docs = {}
    for name, g in GRAPHS.items():
        docs[f"{name}.json"] = _graph_doc(g)
        docs[f"{name}-matrix.json"] = {"matrix": [list(r) for r in graph_to_rep(g).matrix]}
    docs["R10.json"] = {"matrix": [list(r) for r in R10_MATRIX]}
    docs["K4-explicit.json"] = _explicit_pair(graph_to_rep(GRAPHS["K4"]))
    docs["W4-weights.json"] = {"circuit": {"weights": [5, -1, 2, 7, 1, 3, -4, 1]},
                               "cocircuit": {"weights": [1, 1, 1, 1, 1, 1, 1, 1]}}
    docs["bouquet.json"] = {"vertices": 1, "edges": [[0, 0], [0, 0]]}
    docs["theta.json"] = {"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]}
    # three circuits of the theta graph, each turned the same way round: not acyclic
    docs["theta-cyclic.json"] = {
        "circuit": {"explicit": [{"support": [0, 1], "signs": [1, -1]},
                                 {"support": [1, 2], "signs": [1, -1]},
                                 {"support": [0, 2], "signs": [-1, 1]}]},
        "cocircuit": {"weights": [1, 2, 4]}}
    docs["C17.json"] = {"vertices": 17, "edges": [[i, (i + 1) % 17] for i in range(17)]}
    docs["not-unimodular.json"] = {"matrix": [[1, 1], [1, -1]]}
    docs["wide-not-unimodular.json"] = {
        "matrix": [[1, 0, 1, 1] + [0] * 13, [0, 1, 1, -1] + [0] * 13]}
    docs["half-vertex.json"] = {"vertices": 1.5, "edges": []}
    docs["broken.json"] = "{"
    return docs


def write_inputs(directory: Path):
    for name, doc in _inputs().items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / name).write_text(text, encoding="utf-8")


def _runs() -> list[str]:
    instances = [("--graph", f"{name}.json") for name in GRAPHS]
    instances += [("--matroid", "R10.json")]
    instances += [("--matroid", f"{name}-matrix.json") for name in GRAPHS]
    runs = []
    for source in instances:
        runs += [["table", *source, "--format", fmt] for fmt in ("json", "dot", "csv")]
        runs += [["verify", *source]]
        runs += [["classes", *source, "--kind", kind]
                 for kind in ("cycle", "cocycle", "cycle-cocycle")]
        runs += [["ehrhart", *source], ["signature-check", *source]]
    weights = ["--cycle-weights", "1,-2,1/3,5,7,-1,2,3", "--cocycle-weights", "2,1,-1,1/2,3,1,1,4"]
    runs += [
        # signatures from a file or from weights
        ["table", "--graph", "K4.json", "--signature", "K4-explicit.json"],
        ["signature-check", "--graph", "K4.json", "--signature", "K4-explicit.json"],
        ["verify", "--matroid", "K4-matrix.json", "--signature", "K4-explicit.json"],
        ["table", "--graph", "W4.json", "--signature", "W4-weights.json", "--format", "csv"],
        ["table", "--graph", "W4.json", *weights],
        ["signature-check", "--graph", "W4.json", *weights],
        ["verify", "--graph", "W4.json", "--seed", "3", "--samples", "100", *weights[:2]],
        ["table", "--graph", "bouquet.json"],
        ["classes", "--graph", "bouquet.json"],
        # bad input: exit 2
        ["table", "--graph", "missing.json"],
        ["table", "--matroid", ""],
        ["table", "--graph", "broken.json"],
        ["table", "--graph", "half-vertex.json"],
        ["table", "--matroid", "K4.json"],
        ["classes", "--matroid", "not-unimodular.json"],
        ["table", "--graph", "theta.json", "--signature", "theta-cyclic.json"],
        ["table", "--graph", "K4.json", "--signature", "K4-explicit.json", *weights[:2]],
        ["table", "--graph", "K4.json", "--cycle-weights", "1,x"],
        ["table", "--graph", "K4.json", "--cocycle-weights", "1,2"],
        ["verify", "--graph", "K4.json", "--samples", "-1"],
        # caps: exit 3
        ["table", "--graph", "C17.json"],
        ["classes", "--graph", "C17.json"],
        ["verify", "--graph", "C17.json"],
        ["classes", "--matroid", "wide-not-unimodular.json"],
        # empty values, read like any other value: exit 2
        ["table", "--graph", ""],
        ["table", "--graph", "K4.json", "--signature", ""],
        ["table", "--graph", "K4.json", "--cycle-weights", ""],
        ["table", "--graph", "K4.json", "--cocycle-weights", ""],
        ["table", "--graph", "K4.json", "--out", ""],
        ["table", "--graph", "K4.json", "--signature", "", "--cycle-weights", "1"],
    ]
    return [shlex.join(argv) for argv in runs]


RUNS = _runs()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(run: str) -> dict:
    """Exit code and output digests of one run, made in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(run))
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def write(runs=()):
    unknown = sorted(set(runs) - set(RUNS))
    if unknown:
        raise SystemExit(f"not a corpus run: {unknown}")
    kept = runs and CORPUS.exists()
    corpus = json.loads(CORPUS.read_text(encoding="utf-8")) if kept else {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs(Path(work))
            corpus.update((run, outcome(run)) for run in runs or RUNS)
        finally:
            os.chdir(home)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{CORPUS.name}: {len(runs or RUNS)} of {len(corpus)} runs written")


if __name__ == "__main__":
    write(sys.argv[1:])
