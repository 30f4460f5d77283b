"""Output checks, run after the timed region.

Each check takes plain outputs (masks, counts, parsed JSON) and returns a
list of problems; an empty list means the output is correct.  They import
nothing from the package, so a corrupted result cannot pass by consulting
the code that produced it.
"""

from __future__ import annotations

import hashlib


def table_rows(rows: list[dict], n: int, tutte_counts: dict[str, int]) -> list[str]:
    """Rows of ``oribij table`` JSON against the Tutte evaluations.

    The orientations and the subgraphs must each be all 2^n subsets, and the
    tag counts must equal T(1,1), T(2,1), T(1,2) and T(2,2).
    """
    problems = []
    orientations = {tuple(r["orientation"]) for r in rows}
    subgraphs = {tuple(r["subgraph"]) for r in rows}
    if len(rows) != 1 << n or len(orientations) != len(rows):
        problems.append(f"{len(orientations)} distinct orientations in {len(rows)} rows")
    if len(subgraphs) != 1 << n:
        problems.append(f"{len(subgraphs)} distinct subgraphs, want {1 << n}")
    if any(any(e < 0 or e >= n for e in s) for s in subgraphs):
        problems.append("a subgraph leaves the ground set")
    tags = {}
    for r in rows:
        tags[r["tag"]] = tags.get(r["tag"], 0) + 1
    got = {
        "bases": tags.get("basis", 0),
        "independent": tags.get("basis", 0) + tags.get("forest", 0),
        "spanning": tags.get("basis", 0) + tags.get("connected-spanning", 0),
        "total": len(rows),
    }
    if got != tutte_counts:
        problems.append(f"tag counts {got} != Tutte {tutte_counts}")
    return problems


def digest(text: str, expected: str | None) -> list[str]:
    """SHA-256 of an output text against a recorded one, when recorded."""
    got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if expected is not None and got != expected:
        return [f"sha256 {got} != recorded {expected}"]
    return []


def verify_report(report: dict) -> list[str]:
    if report.get("passed") is not True:
        failed = [s["name"] for s in report.get("suites", ()) if not s.get("passed")]
        return [f"verify report did not pass: {failed}"]
    return []


def query_images(got: list[int], want: list[int]) -> list[str]:
    """Streamed single-query images against the table's forward images."""
    bad = sum(1 for a, b in zip(got, want) if a != b)
    if bad or len(got) != len(want):
        return [f"{bad} of {len(want)} query images differ from the table"]
    return []


def acyclic_witness(acyclic: bool, witness, chosen: list[tuple[int, ...]]) -> list[str]:
    """A weight-derived signature must be acyclic with a strict witness."""
    if not acyclic or witness is None:
        return ["weight-derived signature reported as not acyclic"]
    for vec in chosen:
        if sum(w * x for w, x in zip(witness, vec)) <= 0:
            return [f"witness is not strictly positive on {vec}"]
    return []


def zonotope_count(count: int, independent_sizes: list[int], q: int) -> list[str]:
    """A lattice-point count against the independent-set polynomial at (q, ..., q)."""
    want = sum(q ** k for k in independent_sizes)
    if count != want:
        return [f"zonotope count {count} at q={q} != independent-set polynomial {want}"]
    return []


def class_partition(ours: list[list[int]], oracle: list[list[int]], n: int,
                    want_count: int) -> list[str]:
    """Reversal classes against the closure oracle and the expected count."""
    problems = []
    members = sorted(m for cls in ours for m in cls)
    if members != list(range(1 << n)):
        problems.append("classes do not partition the orientations")
    if sorted(map(sorted, ours)) != sorted(map(sorted, oracle)):
        problems.append("classes differ from the closure oracle")
    if len(ours) != want_count:
        problems.append(f"{len(ours)} classes, want {want_count}")
    return problems


def equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: {got} != {want}"]
