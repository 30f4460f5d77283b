"""The exact tiling certificate against the plain pair-loop oracle.

The package lists the unseparated orientation pairs and locates points
bit-parallel, from one index per table.  These tests check the listing and
the locator against the plain oracles in ``helpers`` exhaustively on small
maps and on seeded corruptions of real tables, check that the listing runs
once per verification, and pin the ``verify`` output to what the plain pair
loop and the subset-enumeration locator printed.
"""

import copy
import hashlib
import itertools
import json
import random
import types
from pathlib import Path

from fractions import Fraction

import pytest

from oribij import (
    BijectionTable,
    Orientation,
    RegularMatroidRep,
    canonical_signature_pair,
    graph_to_rep,
    orientation_to_subgraph,
    verify_cube_tiling,
)
from oribij import geometry
from oribij.cli import main
from oribij.core import bits_of
from oribij.verification import run_verification, separation_violations

from helpers import (
    R10_MATRIX,
    anchors_by_enumeration,
    complete_graph,
    matrix_rep,
    unseparated_pairs,
    wheel,
)

DATA = Path(__file__).parent / "data"


def test_every_small_map_lists_the_oracle_pairs():
    maps = 0
    for n in range(3):
        for images in itertools.product(range(1 << n), repeat=1 << n):
            index = geometry._CellIndex(images, n)
            assert geometry._index_pairs(index) == unseparated_pairs(images)
            maps += 1
    assert maps == 1 + 4 + 256


@pytest.mark.parametrize("name", ["K4", "W4", "K5", "R10"])
def test_corrupted_tables_list_the_oracle_pairs(name):
    rep = {
        "K4": lambda: graph_to_rep(complete_graph(4)),
        "W4": lambda: graph_to_rep(wheel(4)),
        "K5": lambda: graph_to_rep(complete_graph(5)),
        "R10": lambda: RegularMatroidRep.from_rows(R10_MATRIX),
    }[name]()
    n = rep.element_count
    total = 1 << n
    table = BijectionTable.build(rep, *canonical_signature_pair(rep))
    base = [table.forward[m] for m in range(total)]
    assert unseparated_pairs(base) == []
    rng = random.Random(f"corrupt-{name}")
    failing = 0
    for i in range(200):
        images = list(base)
        if i % 3 == 0:
            a, b = rng.sample(range(total), 2)
            images[a], images[b] = images[b], images[a]
            changed = (a, b)
        elif i % 3 == 1:
            a = rng.randrange(total)
            images[a] ^= 1 << rng.randrange(n)
            changed = (a,)
        else:
            a = rng.randrange(total)
            images[a] = rng.randrange(total)
            changed = (a,)
        # the base is separated, so every unseparated pair has a changed end
        want = unseparated_pairs(images, touching=changed)
        fake = types.SimpleNamespace(rep=rep, forward=dict(enumerate(images)))
        assert separation_violations(fake) == want
        for complement in (False, True):
            report = verify_cube_tiling(rep, fake, 0, complement=complement)
            assert list(report.pair_violations) == want
        failing += bool(want)
    assert failing > 150


def _seeded_maps(rep, count):
    """The exact table's images, ``count`` seeded corruptions of them, and the constant map."""
    n = rep.element_count
    total = 1 << n
    table = BijectionTable.build(rep, *canonical_signature_pair(rep))
    base = [table.forward[m] for m in range(total)]
    rng = random.Random(f"locate-{n}")
    maps = [("exact", base)]
    for i in range(count):
        images = list(base)
        if i % 2 == 0:
            a, b = rng.sample(range(total), 2)
            images[a], images[b] = images[b], images[a]
        else:
            for a in rng.sample(range(total), 3):
                images[a] = rng.randrange(total)
        maps.append((f"corrupted-{i}", images))
    maps.append(("constant", [total - 1] * total))
    return maps


@pytest.mark.parametrize("name, count", [("triangle", 6), ("K4", 4), ("W4", 2)])
def test_locator_matches_the_oracle_on_every_point_type(name, count):
    rep = graph_to_rep({"triangle": lambda: complete_graph(3), "K4": lambda: complete_graph(4),
                        "W4": lambda: wheel(4)}[name]())
    n = rep.element_count
    half = Fraction(1, 2)
    points = list(itertools.product((0, half, 1), repeat=n))
    assert len(points) == 3 ** n
    broken = 0
    for label, images in _seeded_maps(rep, count):
        fake = types.SimpleNamespace(rep=rep, forward=dict(enumerate(images)))
        for complement in (False, True):
            for point in points:
                frac = sum(1 << e for e, x in enumerate(point) if x == half)
                ones = sum(1 << e for e, x in enumerate(point) if x == 1)
                got = bits_of(geometry._anchors_containing(fake, frac, ones, complement))
                want = anchors_by_enumeration(images, n, point, complement)
                assert got == want, (label, complement, point)
                if label == "exact":
                    assert len(want) == 1
                broken += len(want) != 1
    assert broken


def test_locate_point_matches_the_oracle_on_w4():
    rep = graph_to_rep(wheel(4))
    table = BijectionTable.build(rep, *canonical_signature_pair(rep))
    images = [table.forward[m] for m in range(1 << 8)]
    for point in itertools.product((0, Fraction(1, 3), 1), repeat=8):
        for complement in (False, True):
            (want,) = anchors_by_enumeration(images, 8, point, complement)
            got = geometry.locate_point(rep, geometry.RationalPoint(point), table, complement)
            assert got.mask == want


def test_the_listing_runs_once_per_verification(monkeypatch):
    rep = graph_to_rep(complete_graph(4))
    sig, cosig = canonical_signature_pair(rep)
    table = BijectionTable.build(rep, sig, cosig, use_cache=False)
    calls = []
    listing = geometry._index_pairs
    built = []
    index_class = geometry._CellIndex

    def counted(index):
        calls.append(index.n)
        return listing(index)

    def indexed(images, n):
        built.append(n)
        return index_class(images, n)

    monkeypatch.setattr(geometry, "_index_pairs", counted)
    monkeypatch.setattr(geometry, "_CellIndex", indexed)
    assert run_verification(rep, sig, cosig, samples=20, table=table)["passed"]
    assert len(calls) == 1
    assert separation_violations(table) == []
    assert len(calls) == 1
    # a copied table with a new forward dict is indexed and listed afresh
    corrupted = copy.copy(table)
    corrupted.forward = dict(table.forward)
    corrupted.forward[0], corrupted.forward[5] = table.forward[5], table.forward[0]
    want = unseparated_pairs([corrupted.forward[m] for m in range(1 << 6)])
    assert want
    report = run_verification(rep, sig, cosig, samples=20, table=corrupted)
    assert len(calls) == 2
    assert not report["passed"]
    assert separation_violations(corrupted) == want
    assert separation_violations(table) == []
    assert len(calls) == 3
    # and so is a table whose forward dict is replaced in place
    fake = types.SimpleNamespace(rep=rep, forward=table.forward)
    assert separation_violations(fake) == []
    fake.forward = corrupted.forward
    assert separation_violations(fake) == want
    assert len(calls) == 5
    # each listing reads the one index its table already built
    assert built == calls


# ---------------------------------------------------------------------------
# the verify output is pinned to the pair-loop implementation's, the table
# output to the inline-split, per-mask compatibility and standard-encoder one's,
# the classes output to the dot-product keys' and signature walk's, the
# ehrhart output to the frozenset-keyed polynomials', the signature-check
# output to the per-pair Fourier-Motzkin kernel's, and the single-query images
# to those of the queries that read the whole table


def _input_file(tmp_path, name):
    if name == "W4":
        g = wheel(4)
        doc = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
        flag = "--graph"
    elif name == "W4-matrix":
        doc = {"matrix": [list(row) for row in graph_to_rep(wheel(4)).matrix]}
        flag = "--matroid"
    else:
        doc = {"matrix": [list(row) for row in R10_MATRIX]}
        flag = "--matroid"
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return flag, str(path)


@pytest.mark.parametrize("name, digest", [
    ("W4", "5ac8f9da7aa305e9a7838b5769dc2b0e116c1cf87e28590040f715e49b75914c"),
    ("R10", "91416259550d313ea0747895ae154f511d73de4b71162de70bb145fd12abbfcb"),
])
def test_verify_stdout_is_unchanged(capsys, tmp_path, name, digest):
    flag, path = _input_file(tmp_path, name)
    code = main(["verify", flag, path, "--seed", "7", "--samples", "300"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_corrupted_triangle_report_is_unchanged(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    table = BijectionTable.build(triangle_rep, sig, cosig)
    corrupted = copy.copy(table)
    corrupted.forward = dict(table.forward)
    corrupted.forward[0], corrupted.forward[1] = table.forward[1], table.forward[0]
    report = run_verification(triangle_rep, sig, cosig, samples=50, table=corrupted)
    want = json.loads((DATA / "corrupted_triangle_report.json").read_text())
    assert json.loads(json.dumps(report)) == want


def test_corrupted_w4_report_is_unchanged():
    # two swapped images: many sampled points of the complement tiling fall
    # in zero or two cells
    rep = graph_to_rep(wheel(4))
    sig, cosig = canonical_signature_pair(rep)
    table = BijectionTable.build(rep, sig, cosig)
    corrupted = copy.copy(table)
    corrupted.forward = dict(table.forward)
    corrupted.forward[42], corrupted.forward[8] = table.forward[8], table.forward[42]
    report = run_verification(rep, sig, cosig, samples=300, seed=7, table=corrupted)
    want = json.loads((DATA / "corrupted_w4_report.json").read_text())
    assert json.loads(json.dumps(report)) == want
    tiling = next(s for s in want["suites"] if s["name"] == "tiling-sample")["detail"]
    assert len(tiling["complement"]["point_violations"]) > 50


@pytest.mark.parametrize("name, fmt, digest", [
    ("W4", "json", "73785140a24ef41e504d69a10fb94f21479272d15bcb3a954efef976f2d583c2"),
    ("W4", "csv", "3c8a6cefcabc3b628e6cc66a957e7ce5dcc123997f79068f0582c7f10f36de85"),
    ("W4", "dot", "ae4784eceab85dd5281880a67757aeb029c753ba3aad45602f9b1cd53f8e9ae3"),
    ("R10", "json", "9eba7822a641a23fa74e1af0461222cf230378e42401f55cc7e15d5c20eeb5c4"),
    ("R10", "csv", "a2c3a8e42bb2028b03e687b015a5e4b385e36138014ee33a16974bfa1684a09a"),
])
def test_table_stdout_is_unchanged(capsys, tmp_path, name, fmt, digest):
    flag, path = _input_file(tmp_path, name)
    code = main(["table", flag, path, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, kind, digest", [
    ("W4", "cycle", "e6814a52c0162c1b06ff8b7d46e70e4e96619c91ecb13418121da05ad7cb766b"),
    ("W4", "cocycle", "5ab4b963d75ecbf7a3f707d6b7482538ade80173af4b9fab0bfa8c858a54aa74"),
    ("W4", "cycle-cocycle", "a3cc9f6c8473919162764232cbfc19a207cb475e36ccd77be34de36013cdc41a"),
    ("R10", "cycle", "288cd4be8baeefad0f7c1ecf6da43e0e905db4b11bfbc55999fac400ca0375db"),
    ("R10", "cocycle", "ab8808494a9e46492442da0d343fa6d1664a02e5782fde7db352abadd0f67a2b"),
    ("R10", "cycle-cocycle", "33d6902e70b6b0f81486ed32c6699267cffb752a6ab03afe10e6149c47910727"),
])
def test_classes_stdout_is_unchanged(capsys, tmp_path, name, kind, digest):
    flag, path = _input_file(tmp_path, name)
    code = main(["classes", flag, path, "--kind", kind])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("W4", "13f9f0abaef6ab6c9b5788568853a0eca4f2a5238478d55dd4547fd931a05c26"),
    ("R10", "7f145b6129567de59118d0172a34e34e31cab15ae490c3e07bbe7297cd301f88"),
])
def test_ehrhart_stdout_is_unchanged(capsys, tmp_path, name, digest):
    flag, path = _input_file(tmp_path, name)
    code = main(["ehrhart", flag, path])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _explicit_signature_file(tmp_path, rep):
    """The canonical signature pair of rep as an ``explicit`` --signature file."""
    doc = {}
    for sig in canonical_signature_pair(rep):
        doc[sig.side] = {"explicit": [
            {"support": sorted(v.support), "signs": [v.entries[e] for e in sorted(v.support)]}
            for v in sig.chosen
        ]}
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(doc))
    return str(path)


# the witnesses ("-1/16", "-5/16", ...) come from Fourier-Motzkin alone; the
# digest is the per-pair kernel's, and one explicit pair prints what its
# weights print
@pytest.mark.parametrize("name", ["W4", "W4-matrix"])
@pytest.mark.parametrize("explicit", [False, True])
def test_signature_check_stdout_is_unchanged(capsys, tmp_path, name, explicit):
    flag, path = _input_file(tmp_path, name)
    args = ["signature-check", flag, path]
    if explicit:
        args += ["--signature", _explicit_signature_file(tmp_path, graph_to_rep(wheel(4)))]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1753b7c495596b5497b9cf7880748760deedd009d9d697308301854309c3b39f")


@pytest.mark.parametrize("twin", [False, True])
def test_single_query_images_are_unchanged(twin):
    rep = graph_to_rep(wheel(4))
    if twin:
        rep = matrix_rep(rep)
    sig, cosig = canonical_signature_pair(rep)
    n = rep.element_count
    images = [
        sorted(orientation_to_subgraph(rep, Orientation.from_mask(n, m), sig, cosig))
        for m in rep.orientation_universe()
    ]
    digest = hashlib.sha256(json.dumps(images).encode()).hexdigest()
    assert digest == "f500648c6f7d1e74866a511e1451f03b8db0ffee6e54cf35e122c7165b75d92f"
