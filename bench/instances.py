"""Deterministic benchmark inputs, written in the JSON formats the CLI reads.

Graphs are ``{"vertices": k, "edges": [[tail, head], ...]}`` documents
(``oribij --graph``), matrices are ``{"matrix": [[...], ...]}`` documents
(``oribij --matroid``) and signatures are ``{"circuit": {"weights": [...]},
"cocircuit": {"weights": [...]}}`` documents (``oribij --signature``).
Nothing here imports the package: the generators see only the seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# The ROADMAP ladder, n = 6 .. 16.  Wn is the wheel with n rim vertices.
LADDER = ("K4", "W4", "K5", "R10", "W6", "grid3x3", "W7", "W8")

# Standard 5x10 totally unimodular representation of R10: an identity block
# followed by a signed circulant.
R10_MATRIX = (
    (1, 0, 0, 0, 0, -1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, -1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, -1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, -1, 1),
    (0, 0, 0, 0, 1, 1, 0, 0, 1, -1),
)

WEIGHT_DENOMINATORS = (1, 2, 3, 5, 7)  # lcm 210
POOL_MIN_EDGES, POOL_MAX_EDGES = 3, 10


def complete_graph(k: int) -> dict:
    edges = [[i, j] for i in range(k) for j in range(i + 1, k)]
    return {"vertices": k, "edges": edges}


def wheel(rim: int) -> dict:
    """Hub 0 and rim 1..rim: the rim cycle first, then the spokes."""
    edges = [[i, i % rim + 1] for i in range(1, rim + 1)]
    edges += [[0, i] for i in range(1, rim + 1)]
    return {"vertices": rim + 1, "edges": edges}


def grid(rows: int, cols: int) -> dict:
    def v(r, c):
        return r * cols + c

    edges = [[v(r, c), v(r, c + 1)] for r in range(rows) for c in range(cols - 1)]
    edges += [[v(r, c), v(r + 1, c)] for r in range(rows - 1) for c in range(cols)]
    return {"vertices": rows * cols, "edges": edges}


def ladder_instance(name: str) -> tuple[str, dict]:
    """("graph", doc) or ("matroid", doc) for one ladder name."""
    if name == "R10":
        return "matroid", {"matrix": [list(row) for row in R10_MATRIX]}
    if name == "grid3x3":
        return "graph", grid(3, 3)
    if name[0] == "K":
        return "graph", complete_graph(int(name[1:]))
    if name[0] == "W":
        return "graph", wheel(int(name[1:]))
    raise ValueError(f"unknown ladder instance {name!r}")


def incidence_matrix(graph: dict) -> dict:
    """The matrix document of a connected graph, as ``oribij`` derives it.

    Row v is vertex v (the last vertex is dropped): +1 where v is the head of
    a non-loop arc, -1 where it is the tail.
    """
    rows = []
    for v in range(graph["vertices"] - 1):
        rows.append([0 if t == h else (h == v) - (t == v) for t, h in graph["edges"]])
    return {"matrix": rows}


def element_count(kind: str, doc: dict) -> int:
    return len(doc["edges"]) if kind == "graph" else len(doc["matrix"][0])


def random_multigraph(rng: random.Random, n_edges: int) -> dict:
    """A connected multigraph on 2..6 vertices with loops and parallel edges."""
    v = rng.randint(2, min(6, n_edges + 1))
    order = list(range(1, v))
    rng.shuffle(order)
    reached = [0]
    edges = []
    for w in order:  # a random spanning tree keeps the graph connected
        u = rng.choice(reached)
        edges.append([u, w] if rng.random() < 0.5 else [w, u])
        reached.append(w)
    while len(edges) < n_edges:
        roll = rng.random()
        if roll < 0.12:
            x = rng.randrange(v)
            edges.append([x, x])
        elif roll < 0.5:
            edges.append(list(rng.choice(edges)))
        else:
            edges.append([rng.randrange(v), rng.randrange(v)])
    rng.shuffle(edges)
    return {"vertices": v, "edges": edges}


def generic_weights(rng: random.Random, n: int) -> list[str]:
    """Random rationals plus a powers-of-three tiebreak, as exact strings.

    w_e = a_e / d_e + 3^e / (420 * 3^n).  For a nonzero {0,+-1} vector v the
    first part of <w, v> is a multiple of 1/210 and the second is nonzero
    with magnitude below 1/840, so <w, v> is never 0: no support is tied.
    """
    scale = 420 * 3 ** n
    out = []
    for e in range(n):
        w = Fraction(rng.randint(-60, 60), rng.choice(WEIGHT_DENOMINATORS))
        out.append(str(w + Fraction(3 ** e, scale)))
    return out


def canonical_weights(n: int) -> list[str]:
    """The CLI's default weights (1, 3, 9, ...): generic and seed-free."""
    return [str(3 ** e) for e in range(n)]


def weight_signature_doc(rng: random.Random | None, n: int) -> dict:
    """Seeded generic weights, or the canonical ones when ``rng`` is None."""
    def draw():
        return generic_weights(rng, n) if rng is not None else canonical_weights(n)

    return {"circuit": {"weights": draw()}, "cocircuit": {"weights": draw()}}


def _instance(name: str, kind: str, doc: dict, rng: random.Random | None,
              twin: bool) -> dict:
    """One instance; ``twin`` adds the matrix-only form of a graph."""
    n = element_count(kind, doc)
    out = {"name": name, "kind": kind, "doc": doc,
           "signature": weight_signature_doc(rng, n)}
    if twin and kind == "graph":
        out["twin"] = incidence_matrix(doc)
    return out


def workload_inputs(workload: str, seed: int, spec: dict) -> dict:
    """Every input of one workload run, derived from the seed alone.

    ``spec`` holds the workload's sizes (see ``run.WORKLOADS``).  The same
    (workload, seed, spec) always yields the same document.  The pool graphs
    are drawn from a fixed seed, like the acceptance-test pool, so every seed
    does the same amount of work; the seed draws their weights.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool_rng = random.Random(f"{workload}:pool")
    out = {"workload": workload, "seed": seed, "spec": spec}
    twin = spec.get("twins", False)
    ladder_rng = None if spec.get("ladder_weights") == "canonical" else rng
    out["instances"] = [
        _instance(name, *ladder_instance(name), ladder_rng, twin)
        for name in spec.get("ladder", ())
    ]
    for i in range(spec.get("pool", 0)):
        doc = random_multigraph(pool_rng, pool_rng.randint(POOL_MIN_EDGES, POOL_MAX_EDGES))
        out["instances"].append(_instance(f"pool{i}", "graph", doc, rng, twin))
    if "queries" in spec:
        n = element_count(out["instances"][0]["kind"], out["instances"][0]["doc"])
        out["orientations"] = [rng.getrandbits(n) for _ in range(spec["queries"])]
    if "samples" in spec:
        out["verify_seed"] = rng.randrange(1 << 31)
    return out


def _dump(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return path.name


def write_inputs(directory: Path, inputs: dict) -> Path:
    """Write every document as its own CLI input file, plus a manifest.

    A manifest instance is ``{"name", "graph" | "matroid", "signature"}`` with
    an optional ``"twin"``, each naming a file next to the manifest.
    """
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {k: v for k, v in inputs.items() if k != "instances"}
    manifest["instances"] = []
    for inst in inputs["instances"]:
        name, kind = inst["name"], inst["kind"]
        entry = {
            "name": name,
            kind: _dump(directory / f"{name}.{kind}.json", inst["doc"]),
            "signature": _dump(directory / f"{name}.signature.json", inst["signature"]),
        }
        if "twin" in inst:
            entry["twin"] = _dump(directory / f"{name}.twin.matroid.json", inst["twin"])
        manifest["instances"].append(entry)
    return directory / _dump(directory / "manifest.json", manifest)
