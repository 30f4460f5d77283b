"""The packed Fourier-Motzkin kernel against the per-pair reference.

``helpers`` keeps the plain kernel: one tuple per row pair, a Python gcd loop
and Fraction back-substitution.  These tests check that ``eliminate``,
``project`` and ``maximize`` return the same rows, points and exceptions on
seeded random integer systems, including infeasible ones, ones that hit a
lowered row limit and ones whose entries need fields wider than 64 bits, and
that ``is_acyclic`` answers every signature of the acceptance pool as the
reference kernel does.
"""

import random

import pytest

from oribij import (
    COCIRCUIT,
    CapExceededError,
    canonical_signature_pair,
    explicit_signature,
    graph_to_rep,
    is_acyclic,
)
from oribij import fourier_motzkin as fm

from helpers import (
    complete_graph,
    matrix_rep,
    reference_eliminate,
    reference_maximize,
    reference_project,
    suite_instances,
)


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc).__name__, str(exc)


def random_system(rng, nvars, nrows, entry):
    """nrows rows of nvars coefficients and a constant, each drawn by entry(rng)."""
    return [tuple(entry(rng) for _ in range(nvars + 1)) for _ in range(nrows)]


def small(rng):
    return rng.randint(-3, 3)


def wide(rng):
    # zeros keep some pairs trivial; the rest need fields of 90 bits or more
    if rng.random() < 0.2:
        return 0
    return rng.choice((-1, 1)) * rng.randint(1 << 40, 1 << 44)


def _compare(rng, count, entry, kinds):
    """Run all three entry points on count random systems; tally the outcomes."""
    for _ in range(count):
        nvars = rng.randint(1, 4)
        rows = random_system(rng, nvars, rng.randint(1, 9), entry)
        var = rng.randrange(nvars)
        got = outcome(fm.eliminate, rows, var)
        assert got == outcome(reference_eliminate, rows, var), (rows, var)
        kinds[f"eliminate {got[0]}"] = kinds.get(f"eliminate {got[0]}", 0) + 1
        keep = [v for v in range(nvars) if rng.random() < 0.4]
        got = outcome(fm.project, rows, nvars, keep)
        assert got == outcome(reference_project, rows, nvars, keep), (rows, keep)
        kinds[f"project {got[0]}"] = kinds.get(f"project {got[0]}", 0) + 1
        got = outcome(fm.maximize, rows, nvars, var)
        assert got == outcome(reference_maximize, rows, nvars, var), (rows, var)
        label = "unbounded" if got[0] == "value" and got[1][0] is None else got[0]
        kinds[f"maximize {label}"] = kinds.get(f"maximize {label}", 0) + 1
    return kinds


def test_small_systems_match_the_reference():
    kinds = _compare(random.Random("fm-small"), 600, small, {})
    for name in ("eliminate", "project", "maximize"):
        assert kinds[f"{name} value"] > 50
        assert kinds[f"{name} Infeasible"] > 20
    assert kinds["maximize unbounded"] > 20


def test_row_limit_refusals_match_the_reference(monkeypatch):
    monkeypatch.setattr(fm, "ROW_LIMIT", 15)
    kinds = _compare(random.Random("fm-limit"), 300, small, {})
    for name in ("eliminate", "project", "maximize"):
        assert kinds[f"{name} CapExceededError"] > 10
        assert kinds[f"{name} value"] > 10


def test_wide_entries_match_the_reference():
    rng = random.Random("fm-wide")
    kinds = _compare(rng, 200, wide, {})
    for name in ("eliminate", "project", "maximize"):
        assert kinds[f"{name} value"] > 20
    # one elimination step whose combined rows keep entries past 64 bits
    rows = random_system(rng, 4, 10, wide)
    out = fm.eliminate(rows, 0)
    assert out == reference_eliminate(rows, 0)
    assert max(abs(x) for row in out for x in row) >= 1 << 64


def test_is_acyclic_matches_the_reference_on_the_acceptance_pool(monkeypatch):
    jobs = []
    for _, rep, pairs in suite_instances(seed=20240, count=50, pairs_per_graph=3):
        for target in (rep, matrix_rep(rep)):
            jobs += [(target, s) for pair in pairs for s in pair]
    got = [outcome(is_acyclic, rep, s) for rep, s in jobs]
    monkeypatch.setattr(fm, "maximize", reference_maximize)
    assert got == [outcome(is_acyclic, rep, s) for rep, s in jobs]
    kinds = [kind if kind != "value" else value.acyclic for kind, value in got]
    assert kinds.count(True) > 100
    assert kinds.count("CapExceededError") > 10


def test_k5_explicit_cocircuit_signature_hits_the_row_limit():
    rep = graph_to_rep(complete_graph(5))
    cosig = canonical_signature_pair(rep)[1]
    explicit = explicit_signature(rep, COCIRCUIT, [v.entries for v in cosig.chosen])
    with pytest.raises(CapExceededError, match="Fourier-Motzkin row limit"):
        is_acyclic(rep, explicit)
