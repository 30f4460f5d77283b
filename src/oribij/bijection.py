"""The orientation/subgraph correspondence and its restrictions.

A basis is sent to the orientation that follows the chosen direction of each
fundamental circuit (off the basis) and fundamental cocircuit (on it), all t
bases at once (one t-bit column per element); that map is a bijection onto
the jointly compatible orientations.  Extending by "add reversed circuit
supports, remove reversed cocircuit supports" turns it into a bijection
from all orientations to all subsets of the ground set.

The table build and single queries compute a row the same way: the class
key R o mod d finds o's representative cp and its basis in the pair's basis
map (``reversal._basis_map``), ``_image_of`` reads the image off the split
of N (cp - o) (N/t the projection onto the row space), and o's tag code
(2 [sig-compatible] + [cosig-compatible]) must equal the image's subset
code (2 [independent] + [spanning]), each one byte by index.  A query reads
its key (``core._class_key``) and N o off the rep's half-mask tables; the
build, which serves the whole-table commands and the inverse maps, folds the
same key tables for all masks (``core._class_keys``) and reads all N o from
one doubling pass over the same packed columns.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Literal

from .core import (
    Basis,
    DEFAULT_ELEMENT_CAP,
    Orientation,
    PartialOrientation,
    RegularMatroidRep,
    _NOT_A_BASIS,
    _basis_mask,
    bits_of,
    _class_keys,
    _integers,
    _orientation_mask,
    _packed_sum,
    _subset_sums,
    mask_of,
)
from .errors import (
    InputError,
    InvariantViolationError,
    NotCompatibleError,
)
from .reversal import (
    _TABLE_CACHE,  # the one pair cache, also read from this module
    _basis_map,
    _joint_representative,
    _tag_codes,
)
from .signatures import Signature, is_compatible

Tag = Literal["basis", "forest", "connected-spanning", "general"]

# tag by code 2 [compatible with the circuit signature] + [with the cocircuit
# signature], which is also 2 [image independent] + [image spanning]
_TAGS: tuple[Tag, ...] = ("general", "connected-spanning", "forest", "basis")


class BijectionTable:
    """Frozen forward/inverse tables of the subgraph map for one signature pair."""

    def __init__(self, rep, circuit_signature, cocircuit_signature, forward, tags,
                 basis_orientations, orientation_bases):
        self.rep = rep
        self.circuit_signature = circuit_signature
        self.cocircuit_signature = cocircuit_signature
        self.forward: dict[int, int] = forward
        self.tags: dict[int, Tag] = tags
        self.basis_orientations: dict[frozenset[int], int] = basis_orientations
        self.orientation_bases: dict[int, frozenset[int]] = orientation_bases
        self.inverse: dict[int, int] = {s: m for m, s in forward.items()}

    # -- queries -------------------------------------------------------------

    def subgraph_of(self, o: Orientation) -> frozenset[int]:
        return frozenset(bits_of(self.forward[_orientation_mask(o, self.rep.element_count)]))

    def orientation_of(self, subgraph: Iterable[int]) -> Orientation:
        elements = _integers(subgraph, "subgraph")
        if min(elements, default=0) < 0 or (m := mask_of(elements)) not in self.inverse:
            raise InputError("subset is outside the ground set")
        return Orientation.from_mask(self.rep.element_count, self.inverse[m])

    def tag_of(self, o: Orientation) -> Tag:
        return self.tags[_orientation_mask(o, self.rep.element_count)]

    def mask_rows(self):
        """(orientation mask, sorted subgraph elements, tag), by increasing mask."""
        for m in sorted(self.forward):
            yield m, bits_of(self.forward[m]), self.tags[m]

    def rows(self):
        n = self.rep.element_count
        for m, subgraph, tag in self.mask_rows():
            yield Orientation.from_mask(n, m), frozenset(subgraph), tag

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls, rep: RegularMatroidRep, sig: Signature, cosig: Signature,
        cap: int = DEFAULT_ELEMENT_CAP, use_cache: bool = True,
    ) -> "BijectionTable":
        entry = _basis_map(rep, sig, cosig, cap, use_cache)
        if entry.table is not None:
            return entry.table
        codes = _tag_codes(rep, sig, cosig, entry)

        # packed[m] = bias + N m, so packed[cp] + bias - packed[m] = bias + N (cp - m)
        columns, _, _, bias = rep._packed_projection
        packed = _subset_sums(columns, bias)
        forward: dict[int, int] = {}
        # every label is a key: the map holds t distinct keys, and the moduli multiply to t
        for m, key in enumerate(_class_keys(rep)):
            cp, tree_mask = entry.by_key[key]
            forward[m] = _image_of(rep, cp, tree_mask, m, packed[cp] + bias - packed[m])

        if len(set(forward.values())) != len(codes):
            raise InvariantViolationError("forward map is not a bijection")
        subset_codes = rep._subset_codes
        for m, s in forward.items():
            _check_tag(codes[m], subset_codes[s])

        # keyed by forward's own mask ints (mask order), so the two share them
        tags = dict(zip(forward, map(_TAGS.__getitem__, codes)))
        bases = {cp: frozenset(bits_of(b)) for cp, b in entry.by_key.values()}
        entry.table = cls(rep, sig, cosig, forward, tags, {b: cp for cp, b in bases.items()}, bases)
        return entry.table


def _image_of(rep: RegularMatroidRep, cp: int, tree_mask: int, m: int, nd: int) -> int:
    """The image of orientation m, whose class representative cp has basis tree_mask.

    The image is the basis, plus the supports of the reversed circuits, minus
    the supports of the reversed cocircuits.  The reversed circuits are
    disjoint and sum to the kernel part c of d = cp - m (the cocircuits
    likewise to the row-space part c* = N d / t), so their supports are read
    off the split without decomposing it.  nd is bias + N d in the packed
    layout of ``rep._packed_projection``; d is a {0,+-1} vector, so no field
    borrows from the next, and only the nonzero fields are read.  The split
    must be integral and a sign split: c* agrees with d wherever it is nonzero.
    """
    _, t, width, bias = rep._packed_projection
    pos, neg = cp & ~m, m & ~cp
    field = (1 << width) - 1
    half = 1 << (width - 1)
    nonzero = nd ^ bias
    cosupport = 0
    sign_split = True
    while nonzero:
        shift = (nonzero & -nonzero).bit_length() - 1
        shift -= shift % width
        nonzero &= ~(field << shift)
        value = (nd >> shift & field) - half  # t c*_j, never 0 here
        bit = 1 << shift // width
        if value != (t if pos & bit else -t if neg & bit else 0):
            if value % t:
                raise InvariantViolationError("class split is not integral")
            sign_split = False  # reported once every field is known integral
        cosupport |= bit
    if not sign_split:
        raise InvariantViolationError("class split is not a sign split")
    return (tree_mask | pos | neg) & ~cosupport


def _check_tag(code: int, subset_code: int):
    """Refuse a tag code that disagrees with its image's subset code."""
    if code != subset_code:
        raise InvariantViolationError(
            f"{_TAGS[code]} orientation mapped to a subgraph with "
            f"(independent, spanning) = {(subset_code > 1, subset_code & 1 == 1)}")


# ---------------------------------------------------------------------------
# the maps

def basis_to_orientation(
    rep: RegularMatroidRep, basis: Basis, sig: Signature, cosig: Signature
) -> Orientation:
    """Orient every element by its chosen fundamental circuit/cocircuit direction."""
    n = rep.element_count
    mask = _basis_map(rep, sig, cosig, cap=n).orientations.get(_basis_mask(basis))
    if mask is None:
        raise InputError(_NOT_A_BASIS)
    return Orientation.from_mask(n, mask)


def basis_from_orientation(
    rep: RegularMatroidRep, o: Orientation, sig: Signature, cosig: Signature
) -> Basis:
    """Invert basis_to_orientation on a jointly compatible orientation."""
    m = _orientation_mask(o, rep.element_count)
    if not (is_compatible(rep, m, sig) and is_compatible(rep, m, cosig)):
        raise NotCompatibleError("orientation is not jointly compatible")
    cp, found = _joint_representative(rep, m, _basis_map(rep, sig, cosig))
    if cp != m:
        raise InvariantViolationError("compatible orientation has no basis preimage")
    return Basis(frozenset(bits_of(found)))


def _subgraph_and_tag(
    rep: RegularMatroidRep, o: Orientation, sig: Signature, cosig: Signature
) -> tuple[int, Tag]:
    """One row of the table, without the table: o's image mask and its tag.

    Computed and checked as the build computes and checks each row, with o's
    class key and bias + N o read off the rep's half tables.
    """
    m = _orientation_mask(o, rep.element_count)
    entry = _basis_map(rep, sig, cosig)
    cp, tree_mask = _joint_representative(rep, m, entry)
    # bias + N (cp - m), as the build reads it off its packed list
    nd = _packed_sum(rep, cp) + rep._packed_projection[3] - _packed_sum(rep, m)
    image = _image_of(rep, cp, tree_mask, m, nd)
    code = _tag_codes(rep, sig, cosig, entry)[m]
    _check_tag(code, rep._subset_codes[image])
    return image, _TAGS[code]


def orientation_to_subgraph(
    rep: RegularMatroidRep, o: Orientation, sig: Signature, cosig: Signature
) -> frozenset[int]:
    """Map an orientation to a subgraph via its class key (see _subgraph_and_tag)."""
    return frozenset(bits_of(_subgraph_and_tag(rep, o, sig, cosig)[0]))


def subgraph_to_orientation(
    rep: RegularMatroidRep, subgraph: Iterable[int], sig: Signature, cosig: Signature
) -> Orientation:
    """Table-based inverse of orientation_to_subgraph."""
    table = BijectionTable.build(rep, sig, cosig)
    return table.orientation_of(subgraph)


def orientation_to_subgraph_complement(
    rep: RegularMatroidRep, o: Orientation, sig: Signature, cosig: Signature
) -> frozenset[int]:
    """Complement of the subgraph map; also a bijection onto all subsets."""
    full = frozenset(range(rep.element_count))
    return full - orientation_to_subgraph(rep, o, sig, cosig)


def classify_specialization(
    rep: RegularMatroidRep, o: Orientation, sig: Signature, cosig: Signature
) -> Tag:
    """Tag an orientation by which compatibility it enjoys, cross-checked on its image."""
    return _subgraph_and_tag(rep, o, sig, cosig)[1]


def restricted_subgraph_map(
    rep: RegularMatroidRep, partial: PartialOrientation,
    sig: Signature, cosig: Signature,
) -> dict[tuple[bool, ...], frozenset[int]]:
    """Fix a partial orientation; map the free orientations to free subsets.

    Keys are sign tuples over the free elements in increasing order; values
    are the image subgraphs with the fixed elements dropped.  The result is
    always a bijection.
    """
    n = rep.element_count
    if any(not 0 <= e < n for e in partial.support):
        raise InputError("fixed element outside the ground set")
    table = BijectionTable.build(rep, sig, cosig)
    free = sorted(set(range(n)) - partial.support)
    base = partial.forward_mask
    out: dict[tuple[bool, ...], frozenset[int]] = {}
    for combo in itertools.product((False, True), repeat=len(free)):
        m = base | mask_of(e for e, s in zip(free, combo) if s)
        image = table.forward[m]
        out[combo] = frozenset(e for e in free if image >> e & 1)
    return out


def restricted_orientation_map(
    rep: RegularMatroidRep, include: Iterable[int], exclude: Iterable[int],
    sig: Signature, cosig: Signature,
) -> dict[frozenset[int], tuple[bool, ...]]:
    """Fix elements in/out of the subgraph; map free subsets to free orientations.

    Inverts the subgraph map over subsets containing ``include`` and avoiding
    ``exclude``, then drops the fixed elements.  Always a bijection.
    """
    include = frozenset(_integers(include, "fixed element"))
    exclude = frozenset(_integers(exclude, "fixed element"))
    if include & exclude:
        raise InputError("included and excluded elements overlap")
    n = rep.element_count
    if any(not 0 <= e < n for e in include | exclude):
        raise InputError("fixed element outside the ground set")
    table = BijectionTable.build(rep, sig, cosig)
    free = sorted(set(range(n)) - include - exclude)
    base = mask_of(include)
    out: dict[frozenset[int], tuple[bool, ...]] = {}
    for size in range(len(free) + 1):
        for combo in itertools.combinations(free, size):
            s = base | mask_of(combo)
            m = table.inverse[s]
            out[frozenset(combo)] = tuple(bool(m >> e & 1) for e in free)
    return out
