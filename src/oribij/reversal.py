"""Circuit/cocircuit reversals, compatible representatives, and classes.

Reversing a directed circuit in an orientation subtracts its sign vector.
Under an acyclic signature every reversal class has a unique compatible
orientation; iterating "reverse an anti-chosen circuit" reaches it.

The classes need no signature: cycle classes are the fibres of o -> A o,
cocycle classes those of o -> K o (K the kernel basis), both labelled by
``core._packed_columns``' packed sums, and joint classes those of
o -> R o mod d, the class in the Jacobian group Z^r / G Z^r
(``RegularMatroidRep._class_rows``), keyed by one mixed-radix int read off
per-row half tables: ``core._class_keys`` for all 2^n orientations,
``core._class_key`` for one.

The t joint classes each hold one jointly compatible orientation, and these
are the t basis orientations (Backman-Baker-Yuen), so the pair's checked
basis map finds each class's representative by one lookup of its key; the
map, its tag codes and its table once built share one bounded cache.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Literal

from .core import (
    CACHE_SIZE,
    DEFAULT_ELEMENT_CAP,
    Orientation,
    RegularMatroidRep,
    SignedSupportVector,
    _bit_bytes,
    _class_key,
    _class_keys,
    _element_sets,
    _orientation_mask,
    _packed_columns,
    _require_cap,
    _subset_sums,
    bits_of,
    conformal_decompose,
    split_kernel_image,
)
from .errors import InputError, InvariantViolationError
from .signatures import CIRCUIT, COCIRCUIT, Signature, _compatible_among, _compatible_set

Kind = Literal["cycle", "cocycle", "cycle-cocycle"]
KINDS: tuple[Kind, ...] = ("cycle", "cocycle", "cycle-cocycle")


@dataclass(frozen=True)
class ClassDecomposition:
    """An orientation as its compatible representative plus disjoint reversals."""

    representative: Orientation
    cycles: tuple[SignedSupportVector, ...]
    cocycles: tuple[SignedSupportVector, ...]


def reverse(o: Orientation, vec: SignedSupportVector) -> Orientation:
    """Reverse the arcs of ``vec`` in ``o`` (the vector must lie in ``o``)."""
    if not vec.in_orientation(o):
        raise InputError("vector is not contained in the orientation")
    mask = (o.mask & ~vec.pos_mask) | vec.neg_mask
    return Orientation.from_mask(len(o), mask)


def _representative_mask(
    rep: RegularMatroidRep, mask: int, sig: Signature, rng: random.Random | None
) -> int:
    """Reverse anti-chosen circuits until the orientation is compatible."""
    guard = (1 << rep.element_count) + 1
    order = list(range(len(sig.chosen)))
    for _ in range(guard):
        if rng is not None:
            rng.shuffle(order)
        hit = None
        for i in order:
            pos, neg = sig.anti_masks[i]
            if (pos & ~mask) == 0 and (neg & mask) == 0:
                hit = i
                break
        if hit is None:
            return mask
        pos, neg = sig.anti_masks[hit]
        mask = (mask & ~pos) | neg
    raise InvariantViolationError(
        "reversal did not terminate; the signature is probably not acyclic"
    )


def circuit_class_representative(
    rep: RegularMatroidRep, o: Orientation, sig: Signature,
    rng: random.Random | None = None,
) -> Orientation:
    """The unique sig-compatible orientation in o's circuit reversal class."""
    if sig.side != CIRCUIT:
        raise InputError("expected a circuit signature")
    mask = _representative_mask(rep, _orientation_mask(o, rep.element_count), sig, rng)
    return Orientation.from_mask(rep.element_count, mask)


def cocircuit_class_representative(
    rep: RegularMatroidRep, o: Orientation, sig: Signature,
    rng: random.Random | None = None,
) -> Orientation:
    """The unique sig-compatible orientation in o's cocircuit reversal class."""
    if sig.side != COCIRCUIT:
        raise InputError("expected a cocircuit signature")
    mask = _representative_mask(rep, _orientation_mask(o, rep.element_count), sig, rng)
    return Orientation.from_mask(rep.element_count, mask)


# ---------------------------------------------------------------------------
# the basis map: joint representatives by class key

@dataclass(eq=False)
class _BasisMap:
    """A signature pair's checked basis map, and its table once built."""

    # class key -> (the class's jointly compatible orientation, its basis's mask)
    by_key: dict[int, tuple[int, int]]
    orientations: dict[int, int]  # basis mask -> its orientation
    # byte m is mask m's tag code, set on first use by ``_tag_codes``
    codes: bytes | None = None
    table: object = None  # the pair's bijection.BijectionTable, set by its build


# (rep, sig, cosig, graph flag) -> _BasisMap, least recently used first; the
# graph flag keeps a graph rep and its equal matrix twin apart
_TABLE_CACHE: OrderedDict[tuple, _BasisMap] = OrderedDict()


def _orientation_columns(rep: RegularMatroidRep, sig: Signature, cosig: Signature) -> list[int]:
    """Column e of the t basis orientations: bit i is set when basis
    ``rep._basis_masks[i]`` orients e forward.

    C is e's fundamental circuit in the bases with e as C's one element off
    the basis, and D e's fundamental cocircuit in those with e as D's one
    element on it.  Checked: these cover each (basis, element) pair once.
    """
    n, bases = rep.element_count, rep._basis_masks
    holding, full = _element_sets(bases, n), (1 << len(bases)) - 1
    columns, covered = [0] * n, [0] * n
    for s, outside in ((sig, [full ^ c for c in holding]), (cosig, holding)):
        for support, pos in s.pos_by_support.items():
            once = twice = 0  # the bases with at least one, two of its elements "outside"
            for f in bits_of(support):
                once, twice = once | outside[f], twice | once & outside[f]
            for e in bits_of(support):
                fundamental = (once ^ twice) & outside[e]
                if covered[e] & fundamental:
                    raise InvariantViolationError("a basis element has two fundamental supports")
                covered[e] |= fundamental
                if pos >> e & 1:
                    columns[e] |= fundamental
    if covered != [full] * n:
        raise InvariantViolationError("a basis element has no fundamental support")
    return columns


def _basis_map(
    rep: RegularMatroidRep, sig: Signature, cosig: Signature,
    cap: int = DEFAULT_ELEMENT_CAP, use_cache: bool = True,
) -> _BasisMap:
    """The pair's checked basis map, from the cache if there; the cap is checked first.

    The gate of builds, queries and decompositions: a chosen vector other
    than +- the rep's signed circuit (cocircuit) on its support, or a support
    chosen twice, is bad input.
    Checked: the t basis orientations (``_orientation_columns``) are distinct
    and jointly compatible, no two share a class key, the keys number t, the
    Gram determinant det(A A^T) (Cauchy-Binet: the number of bases, every basis
    determinant being +-1), and the moduli d multiply to t, so every class has
    a key.  The map costs no 2^n-bit set and serves any n its caller allows.
    """
    if sig.side != CIRCUIT or cosig.side != COCIRCUIT:
        raise InputError("need a circuit signature and a cocircuit signature")
    _require_cap(rep, cap)
    key = (rep, sig, cosig, rep.graph is not None)
    # one pop and one insert, so a concurrent eviction cannot fail the lookup
    if use_cache and (entry := _TABLE_CACHE.pop(key, None)) is not None:
        _TABLE_CACHE[key] = entry
        return entry
    for s, vectors in ((sig, rep._circuits), (cosig, rep._cocircuits)):
        canonical = {v.pos_mask | v.neg_mask: v.entries for v in vectors}
        if odd := canonical.keys() ^ s.pos_by_support.keys():
            raise InputError(f"no circuit with support {bits_of(min(odd))}")
        if len(s.chosen) != len(s.pos_by_support):
            supports = [v.pos_mask | v.neg_mask for v in s.chosen]
            twice = next(m for i, m in enumerate(supports) if m in supports[:i])
            raise InputError(f"support {bits_of(twice)} chosen twice")
        for v in s.chosen:
            if canonical[v.pos_mask | v.neg_mask] not in (v.entries, tuple(-x for x in v.entries)):
                raise InputError(f"{v.entries} is not a signed {s.side} on its support")
    columns = _orientation_columns(rep, sig, cosig)
    bases, full = rep._basis_masks, (1 << len(rep._basis_masks)) - 1
    masks = _element_sets(columns, len(bases))
    if len(set(masks)) != len(masks):
        raise InvariantViolationError("basis map is not injective")
    if _compatible_among(columns, full, sig) & _compatible_among(columns, full, cosig) != full:
        raise InvariantViolationError("basis orientation is not jointly compatible")
    by_key: dict[int, tuple[int, int]] = {}
    for m, b in zip(masks, bases):
        by_key.setdefault(_class_key(rep, m), (m, b))
    if len(by_key) != len(bases):
        raise InvariantViolationError("two basis orientations share a class key")
    keys, t = len(by_key), rep._projection[1]
    if keys != t:
        raise InvariantViolationError(f"{keys} class keys, not the Gram determinant {t}")
    classes = math.prod(rep._class_rows[1])
    if classes != t:
        raise InvariantViolationError(
            f"the class moduli multiply to {classes}, not the Gram determinant {t}")
    entry = _BasisMap(by_key, dict(zip(bases, masks)))
    if use_cache:
        _TABLE_CACHE[key] = entry
        if len(_TABLE_CACHE) > CACHE_SIZE:
            _TABLE_CACHE.popitem(last=False)
    return entry


def _joint_representative(rep: RegularMatroidRep, mask: int, entry: _BasisMap) -> tuple[int, int]:
    """The jointly compatible orientation of mask's joint class, and its basis's mask."""
    found = entry.by_key.get(_class_key(rep, mask))
    if found is None:
        raise InvariantViolationError("class key missed by the basis map")
    return found


def _tag_codes(
    rep: RegularMatroidRep, sig: Signature, cosig: Signature, entry: _BasisMap
) -> bytes:
    """Byte m is 2 [m sig-compatible] + [m cosig-compatible], made on first use
    by the table build or a single query (both under the element cap) and kept.
    Checked: exactly the map's t representatives carry code 3 (jointly compatible).
    """
    if entry.codes is None:
        total = 1 << rep.element_count
        sigma, star = (int.from_bytes(_bit_bytes(_compatible_set(rep, s), total), "little")
                       for s in (sig, cosig))
        # every byte of either is 0 or 1, so no byte of the sum carries
        codes = (2 * sigma + star).to_bytes(total, "little")
        joint, t = codes.count(3), len(entry.by_key)
        if joint != t:
            raise InvariantViolationError(
                f"{joint} jointly compatible orientations, not the {t} classes")
        if any(codes[cp] != 3 for cp, _ in entry.by_key.values()):
            raise InvariantViolationError("jointly compatible orientation missed by the basis map")
        entry.codes = codes
    return entry.codes


def compatible_decomposition(
    rep: RegularMatroidRep, o: Orientation, sig: Signature, cosig: Signature,
    rng: random.Random | None = None,
) -> ClassDecomposition:
    """Representative of o's joint class plus the disjoint reversals producing o.

    The representative cp is the unique jointly compatible orientation of o's
    class, looked up by class key in the basis map; being unique, it does not
    depend on ``rng``, which is accepted and unused.  The difference cp - o
    splits exactly into a kernel part c and a row-space part c*, both {0,+-1}
    with disjoint supports, which decompose conformally into the reversed
    circuits, resp. cocircuits.
    """
    n = rep.element_count
    # the lookup needs only the bases, so it refuses no ground set for its size
    entry = _basis_map(rep, sig, cosig, cap=n)
    cp_mask, _ = _joint_representative(rep, _orientation_mask(o, n), entry)
    cp = Orientation.from_mask(n, cp_mask)
    c, cstar = split_kernel_image(rep, [a - b for a, b in zip(cp.vector(), o.vector())])
    if not (c.is_sign_vector() and cstar.is_sign_vector()):
        raise InvariantViolationError("same-class split is not a sign vector")
    if (c.pos_mask | c.neg_mask) & (cstar.pos_mask | cstar.neg_mask):
        raise InvariantViolationError("kernel and image parts overlap")
    cycles = conformal_decompose(rep, c) if c.support else ()
    cocycles = conformal_decompose(rep, cstar) if cstar.support else ()
    for piece in (*cycles, *cocycles):
        if not piece.in_orientation(cp):
            raise InvariantViolationError("reversed piece is not in the representative")
    return ClassDecomposition(representative=cp, cycles=cycles, cocycles=cocycles)


def same_class(
    rep: RegularMatroidRep, o1: Orientation, o2: Orientation, kind: Kind
) -> bool:
    """Whether two orientations differ by reversals of the given kind."""
    m1 = _orientation_mask(o1, rep.element_count)
    m2 = _orientation_mask(o2, rep.element_count)
    if kind == "cycle-cocycle":
        return _class_key(rep, m1) == _class_key(rep, m2)
    d = [(m1 >> j & 1) - (m2 >> j & 1) for j in range(rep.element_count)]
    if kind == "cycle":
        return rep.in_kernel(d)
    if kind == "cocycle":
        return rep.in_row_space(d)
    raise InputError(f"unknown reversal kind {kind!r}")


def _class_masks(rep: RegularMatroidRep, kind: Kind) -> tuple[tuple[int, ...], ...]:
    """Reversal classes as sorted tuples of orientation masks, by least member."""
    if kind not in KINDS:
        raise InputError(f"unknown reversal kind {kind!r}")
    if kind == "cycle-cocycle":
        labels = _class_keys(rep)
    else:
        rows = rep.kernel_basis if kind == "cocycle" else rep.matrix
        columns, _, bias = _packed_columns(rows, rep.element_count)
        labels = _subset_sums(columns, bias)
    groups: dict[int, list[int]] = {}
    for m, c in enumerate(labels):
        groups.setdefault(c, []).append(m)
    return tuple(tuple(members) for members in groups.values())


def enumerate_classes(
    rep: RegularMatroidRep, kind: Kind, cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[tuple[Orientation, ...], ...]:
    """Partition of all orientations into reversal classes of the given kind."""
    _require_cap(rep, cap)
    n = rep.element_count
    return tuple(
        tuple(Orientation.from_mask(n, m) for m in members)
        for members in _class_masks(rep, kind)
    )
