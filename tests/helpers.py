"""Shared fixtures-by-construction for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from oribij import (
    CIRCUIT,
    COCIRCUIT,
    Graph,
    RegularMatroidRep,
    Signature,
    graph_to_rep,
    signature_from_weights,
)

# standard 5x10 representation: identity block plus a signed circulant
R10_MATRIX = (
    (1, 0, 0, 0, 0, -1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, -1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, -1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, -1, 1),
    (0, 0, 0, 0, 1, 1, 0, 0, 1, -1),
)


def random_connected_multigraph(rng: random.Random, n_edges: int) -> Graph:
    """A connected multigraph with loops and parallel edges sprinkled in."""
    v = rng.randint(2, max(2, min(6, n_edges + 1)))
    edges: list[tuple[int, int]] = []
    order = list(range(1, v))
    rng.shuffle(order)
    connected = [0]
    for w in order:
        u = rng.choice(connected)
        edges.append((u, w) if rng.random() < 0.5 else (w, u))
        connected.append(w)
    while len(edges) < n_edges:
        roll = rng.random()
        if roll < 0.12:
            x = rng.randrange(v)
            edges.append((x, x))
        elif roll < 0.5:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randrange(v), rng.randrange(v)))
    rng.shuffle(edges)
    return Graph(v, tuple(edges[:n_edges]))


def random_weights(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 7))) for _ in range(n)]


def random_signature_pair(
    rep: RegularMatroidRep, rng: random.Random
) -> tuple[Signature, Signature]:
    n = rep.element_count
    return (
        signature_from_weights(rep, random_weights(rng, n), CIRCUIT),
        signature_from_weights(rep, random_weights(rng, n), COCIRCUIT),
    )


def matrix_rep(rep: RegularMatroidRep) -> RegularMatroidRep:
    """The same representation with the graph structure stripped."""
    return RegularMatroidRep.from_rows(rep.matrix, element_count=rep.element_count)


def suite_instances(seed: int = 20240, count: int = 50, pairs_per_graph: int = 3):
    """The randomized instance pool shared by the acceptance criteria.

    Yields (graph, rep, [(sig, cosig), ...]) with 3 <= |E| <= 10.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = random_connected_multigraph(rng, rng.randint(3, 10))
        rep = graph_to_rep(g)
        pairs = [random_signature_pair(rep, rng) for _ in range(pairs_per_graph)]
        out.append((g, rep, pairs))
    return out


def unseparated_pairs(images, touching=None) -> list[tuple[int, int]]:
    """Plain pair-loop oracle for the separation property.

    ``images[m]`` is the image mask of orientation m.  Returns the pairs
    a < b with no element where a and b disagree and exactly one image
    contains it, in lexicographic order.  With ``touching``, only the pairs
    with an end in that collection are examined.
    """
    total = len(images)
    if touching is None:
        candidates = ((a, b) for a in range(total) for b in range(a + 1, total))
    else:
        candidates = sorted({
            (min(a, b), max(a, b)) for a in touching for b in range(total) if a != b
        })
    return [(a, b) for a, b in candidates if not (a ^ b) & (images[a] ^ images[b])]
