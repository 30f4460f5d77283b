"""Shared fixtures-by-construction for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd

from oribij import (
    CIRCUIT,
    COCIRCUIT,
    Basis,
    Graph,
    RegularMatroidRep,
    Signature,
    fundamental_circuit,
    fundamental_cocircuit,
    graph_to_rep,
    signature_from_weights,
)
from oribij import fourier_motzkin
from oribij.errors import CapExceededError, InvariantViolationError

# standard 5x10 representation: identity block plus a signed circulant
R10_MATRIX = (
    (1, 0, 0, 0, 0, -1, 1, 0, 0, 1),
    (0, 1, 0, 0, 0, 1, -1, 1, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, -1, 1, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, -1, 1),
    (0, 0, 0, 0, 1, 1, 0, 0, 1, -1),
)


def wheel(rim: int) -> Graph:
    """Hub 0 and rim 1..rim: the rim cycle first, then the spokes."""
    edges = [(i, i % rim + 1) for i in range(1, rim + 1)] + [(0, i) for i in range(1, rim + 1)]
    return Graph(rim + 1, tuple(edges))


def complete_graph(k: int) -> Graph:
    return Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, tuple(edges))


def ladder_reps() -> dict[str, RegularMatroidRep]:
    """The benchmark's instance ladder, n = 6 to 16, by name."""
    reps = {f"K{k}": graph_to_rep(complete_graph(k)) for k in (4, 5)}
    reps.update((f"W{k}", graph_to_rep(wheel(k))) for k in (4, 6, 7, 8))
    reps["R10"] = RegularMatroidRep.from_rows(R10_MATRIX)
    reps["grid3x3"] = graph_to_rep(grid(3, 3))
    return reps


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


def anchors_by_enumeration(images, n: int, point, complement: bool = False) -> list[int]:
    """Plain locator oracle: the anchors whose half-open cell holds the point.

    ``images[m]`` is the image mask of orientation m and ``point`` a sequence
    of Fractions in [0, 1].  The candidate anchors agree with the point on
    its integral coordinates, one per subset of its fractional ones; each is
    kept when hoc(anchor, image) holds the point coordinate by coordinate.
    Returns the anchor masks in increasing order.
    """
    fractional = [e for e, x in enumerate(point) if 0 < x < 1]
    base = sum(1 << e for e, x in enumerate(point) if x == 1)
    hits = []
    for size in range(len(fractional) + 1):
        for subset in itertools.combinations(fractional, size):
            anchor = base + sum(1 << e for e in subset)
            image = images[anchor] ^ ((1 << n) - 1 if complement else 0)
            if all(_cell_holds(anchor >> e & 1, image >> e & 1, x)
                   for e, x in enumerate(point)):
                hits.append(anchor)
    return sorted(hits)


def _cell_holds(anchored: int, generating: int, x) -> bool:
    """Coordinate test of hoc(O, S): pinned to O(e) off S, half-open toward O(e) on S."""
    if not generating:
        return x == anchored
    return 0 < x <= 1 if anchored else 0 <= x < 1


def orient_basis_by_vectors(
    rep: RegularMatroidRep, basis: Basis, sig: Signature, cosig: Signature
) -> int:
    """A basis's orientation mask by definition, one signed vector per element.

    Element e follows the chosen direction of its fundamental circuit (e off
    the basis) or fundamental cocircuit (e on it).
    """
    mask = 0
    for e in range(rep.element_count):
        if e in basis.elements:
            chosen = cosig.choice(fundamental_cocircuit(rep, basis, e).support)
        else:
            chosen = sig.choice(fundamental_circuit(rep, basis, e).support)
        if chosen.entries[e] > 0:
            mask |= 1 << e
    return mask


# ---------------------------------------------------------------------------
# reference implementations; none of them calls into the package


def bfs_reversal_classes(n: int, moves) -> list[tuple[int, ...]]:
    """Reversal classes by breadth-first closure over single reversal moves.

    ``moves`` holds the (pos, neg) sign masks of the signed vectors that may
    be reversed.  A vector is directed in m either way round exactly when m
    restricted to its support is pos or neg; reversing it flips the support.
    Returns each class sorted, the classes by least member.
    """
    moves = [(pos | neg, (pos, neg)) for pos, neg in moves]
    total = 1 << n
    seen = [False] * total
    classes = []
    for start in range(total):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        queue = [start]
        while queue:
            m = queue.pop()
            for supp, directed in moves:
                if (m & supp) in directed:
                    nxt = m ^ supp
                    if not seen[nxt]:
                        seen[nxt] = True
                        members.append(nxt)
                        queue.append(nxt)
        classes.append(tuple(sorted(members)))
    return classes


def fraction_independent_masks(columns, height: int) -> set[int]:
    """All linearly independent column subsets over Q, by Fraction elimination."""
    n = len(columns)
    out = {0}

    def reduce(col, echelon):
        work = list(col)
        for pivot, row in echelon:
            f = work[pivot]
            if f:
                work = [a - f * b for a, b in zip(work, row)]
        return work

    def extend(mask, start, echelon):
        for j in range(start, n):
            work = reduce([Fraction(x) for x in columns[j]], echelon)
            pivot = next((i for i, x in enumerate(work) if x), None)
            if pivot is None:
                continue
            inv = Fraction(1) / work[pivot]
            row = [x * inv for x in work]
            out.add(mask | (1 << j))
            extend(mask | (1 << j), j + 1, echelon + [(pivot, row)])

    if height:
        extend(0, 0, [])
    return out


def fraction_rref(rows, width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    work = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [x / work[r][col] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return work[:len(pivots)], pivots


def fraction_determinant(matrix) -> Fraction:
    work = [[Fraction(x) for x in row] for row in matrix]
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, n):
            f = work[i][col] / work[col][col]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return det


def minors_are_unit_from_scratch(rows) -> bool:
    """Whether every square minor lies in {0, +1, -1}, each computed on its own."""
    r = len(rows)
    n = len(rows[0]) if rows else 0
    for k in range(1, min(r, n) + 1):
        for rsub in itertools.combinations(range(r), k):
            for csub in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in csub] for i in rsub]
                if abs(fraction_determinant(minor)) > 1:
                    return False
    return True


def fraction_inverse(matrix) -> list[list[Fraction]]:
    n = len(matrix)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [row[n:] for row in work]


def row_space_projection(matrix, n: int) -> list[list[Fraction]]:
    """P = A^T (A A^T)^-1 A for a full-row-rank A (zero when A has no rows)."""
    if not matrix:
        return [[Fraction(0)] * n for _ in range(n)]
    r = len(matrix)
    gram_inv = fraction_inverse(
        [[sum(a * b for a, b in zip(matrix[i], matrix[k])) for k in range(r)] for i in range(r)]
    )
    half = [[sum(gram_inv[i][k] * matrix[k][j] for k in range(r)) for j in range(n)]
            for i in range(r)]
    return [[sum(matrix[k][i] * half[k][j] for k in range(r)) for j in range(n)]
            for i in range(n)]


def fraction_split(projection, d) -> tuple[list[Fraction], list[Fraction]]:
    """(c, c*) with c* = P d the row-space part and c = d - c*."""
    cstar = [sum(p * x for p, x in zip(row, d)) for row in projection]
    return [x - y for x, y in zip(d, cstar)], cstar


def _sign_masks(vec) -> tuple[int, int]:
    return (sum(1 << j for j, x in enumerate(vec) if x > 0),
            sum(1 << j for j, x in enumerate(vec) if x < 0))


def table_oracle(matrix, n: int, circuits, cocircuits):
    """The subgraph map and tags of every orientation, straight from the definitions.

    ``circuits`` and ``cocircuits`` are the chosen signed vectors of the two
    signatures, as tuples.  Classes come from breadth-first reversal of
    their supports; each class holds one orientation cp containing no
    anti-chosen vector, the image of the basis whose fundamental circuits
    and cocircuits all point along the chosen directions; m goes to that
    basis, plus the support of c, minus the support of c*, where
    cp - m = c + c* is the exact split with c* = A^T (A A^T)^-1 A (cp - m).
    Returns (forward, tags) as dicts keyed by orientation mask.
    """
    total = 1 << n
    # m contains the anti-chosen vector (neg, pos) when m covers neg and misses pos
    anti = [_sign_masks(v) for v in circuits], [_sign_masks(v) for v in cocircuits]
    sigma_ok, star_ok = (
        [not any(m & neg == neg and not m & pos for pos, neg in side) for m in range(total)]
        for side in anti
    )

    supports = [sum(1 << j for j, x in enumerate(v) if x) for v in (*circuits, *cocircuits)]
    circuit_supports, cocircuit_supports = supports[:len(circuits)], supports[len(circuits):]
    bases = [
        b for b in (sum(1 << e for e in c) for c in itertools.combinations(range(n), len(matrix)))
        if not any(s & ~b == 0 for s in circuit_supports)
    ]
    orientation_of_basis = {}
    for b in bases:
        m = 0
        for e in range(n):
            if b >> e & 1:
                (vec,) = [v for v, s in zip(cocircuits, cocircuit_supports) if s & b == 1 << e]
            else:
                (vec,) = [v for v, s in zip(circuits, circuit_supports) if s & ~b == 1 << e]
            if vec[e] > 0:
                m |= 1 << e
        orientation_of_basis[m] = b
    assert len(orientation_of_basis) == len(bases)

    projection = row_space_projection(matrix, n)
    forward, tags = {}, {}
    for members in bfs_reversal_classes(n, (*anti[0], *anti[1])):
        (cp,) = [m for m in members if sigma_ok[m] and star_ok[m]]
        basis = orientation_of_basis[cp]
        for m in members:
            d = [(cp >> j & 1) - (m >> j & 1) for j in range(n)]
            _, cstar = fraction_split(projection, d)
            assert all(x.denominator == 1 for x in cstar)
            image = sum(1 << j for j, x in enumerate(cstar) if x)
            kernel = sum(1 << j for j, x in enumerate(d) if x) & ~image
            forward[m] = (basis | kernel) & ~image
            tags[m] = {
                (True, True): "basis", (True, False): "forest",
                (False, True): "connected-spanning", (False, False): "general",
            }[sigma_ok[m], star_ok[m]]
    return forward, tags


class SubsetPolynomial:
    """Plain reference for ``MultilinearPolynomial``: coefficients keyed by frozenset.

    Squarefree monomials are element subsets; zero coefficients are dropped.
    """

    def __init__(self, coefficients=None):
        self.coeffs = {frozenset(s): int(c) for s, c in (coefficients or {}).items() if c}

    @classmethod
    def from_subsets(cls, subsets) -> "SubsetPolynomial":
        out: dict[frozenset, int] = {}
        for s in subsets:
            out[frozenset(s)] = out.get(frozenset(s), 0) + 1
        return cls(out)

    @classmethod
    def full_cube(cls, n: int) -> "SubsetPolynomial":
        return cls.from_subsets(
            s for size in range(n + 1) for s in itertools.combinations(range(n), size)
        )

    def coefficient(self, subset) -> int:
        return self.coeffs.get(frozenset(subset), 0)

    def monomials(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(((tuple(sorted(s)), c) for s, c in self.coeffs.items()),
                      key=lambda item: (len(item[0]), item[0]))

    def evaluate(self, values):
        total = 0
        for s, c in self.coeffs.items():
            term = c
            for e in s:
                term *= values[e]
            total += term
        return total

    def __sub__(self, other: "SubsetPolynomial") -> "SubsetPolynomial":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) - c
        return SubsetPolynomial(out)

    def __len__(self) -> int:
        return len(self.coeffs)


# ---------------------------------------------------------------------------
# Fourier-Motzkin with one tuple per row pair and Fraction back-substitution:
# the plain kernel the packed one replaced, kept as its oracle.  It reads
# ``fourier_motzkin.ROW_LIMIT`` and raises its ``Infeasible``, so a test that
# lowers the limit lowers it for both.


def _reference_normalized(row: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if g > 1:
        return tuple(x // g for x in row)
    return row


def _reference_trivial(row: tuple[int, ...]) -> bool:
    if any(row[:-1]):
        return False
    if row[-1] < 0:
        raise fourier_motzkin.Infeasible
    return True


def reference_eliminate(rows, var: int) -> list[tuple[int, ...]]:
    pos, neg, rest = [], [], []
    for row in rows:
        a = row[var]
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            rest.append(row)
    if len(pos) * len(neg) + len(rest) > fourier_motzkin.ROW_LIMIT:
        raise CapExceededError("Fourier-Motzkin row limit exceeded")
    out = set(rest)
    for p in pos:
        ap = p[var]
        for q in neg:
            aq = -q[var]
            combined = _reference_normalized(tuple(aq * x + ap * y for x, y in zip(p, q)))
            if not _reference_trivial(combined):
                out.add(combined)
    return sorted(out)


def _reference_order(rows, candidates: list[int]) -> int:
    best, best_cost = candidates[0], None
    for v in candidates:
        p = sum(1 for row in rows if row[v] > 0)
        n = sum(1 for row in rows if row[v] < 0)
        cost = p * n - p - n
        if best_cost is None or cost < best_cost:
            best, best_cost = v, cost
    return best


def _reference_start(rows) -> list[tuple[int, ...]]:
    return sorted({_reference_normalized(tuple(r)) for r in rows
                   if not _reference_trivial(tuple(r))})


def reference_project(rows, nvars: int, keep) -> list[tuple[int, ...]]:
    current = _reference_start(rows)
    remaining = [v for v in range(nvars) if v not in set(keep)]
    while remaining:
        v = _reference_order(current, remaining)
        remaining.remove(v)
        current = reference_eliminate(current, v)
    return current


def reference_maximize(rows, nvars: int, objective: int):
    current = _reference_start(rows)
    steps = []
    remaining = [v for v in range(nvars) if v != objective]
    while remaining:
        v = _reference_order(current, remaining)
        remaining.remove(v)
        steps.append((v, current))
        current = reference_eliminate(current, v)

    upper = lower = None
    for row in current:
        a, c = row[objective], row[-1]
        if a == 0:
            continue
        bound = Fraction(-c, a)
        if a > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    if lower is not None and upper is not None and lower > upper:
        raise fourier_motzkin.Infeasible

    assignment = [Fraction(0)] * nvars
    if upper is not None:
        assignment[objective] = upper
    elif lower is not None:
        assignment[objective] = lower
    for var, rows_before in reversed(steps):
        lo = hi = None
        for row in rows_before:
            a = row[var]
            if a == 0:
                continue
            rest = row[-1] + sum(
                row[j] * assignment[j] for j in range(nvars) if j != var and row[j]
            )
            bound = Fraction(-rest, a)
            if a > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            if lo > hi:
                raise InvariantViolationError("back-substitution interval is empty")
            assignment[var] = (lo + hi) / 2
        elif lo is not None:
            assignment[var] = lo
        elif hi is not None:
            assignment[var] = hi
    return upper, assignment
