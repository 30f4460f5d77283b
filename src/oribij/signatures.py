"""Acyclic circuit and cocircuit signatures.

A signature picks one direction for every circuit (or cocircuit) support.
It is acyclic when no nonnegative combination of the chosen vectors vanishes,
which happens exactly when some weight vector has strictly positive inner
product with every choice.  Signatures are built either from a weight vector
or from an explicit list of choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Literal, NamedTuple, Sequence

from . import fourier_motzkin as fm
from .core import (
    CACHE_SIZE,
    DEFAULT_ELEMENT_CAP,
    Orientation,
    RegularMatroidRep,
    SignedSupportVector,
    _integers,
    _orientation_mask,
    bits_of,
    enumerate_signed_circuits,
    enumerate_signed_cocircuits,
    orientations_with_bit,
)
from .errors import CapExceededError, InputError, InvariantViolationError

DEFAULT_SUPPORT_CAP = 20

CIRCUIT: Literal["circuit"] = "circuit"
COCIRCUIT: Literal["cocircuit"] = "cocircuit"
Side = Literal["circuit", "cocircuit"]


@dataclass(frozen=True)
class Signature:
    """One chosen signed vector per circuit (or cocircuit) support."""

    side: Side
    chosen: tuple[SignedSupportVector, ...]
    provenance: str = "explicit"

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash of the fields, which never change
        return hash((self.side, self.chosen, self.provenance))

    @cached_property
    def by_support(self) -> dict[frozenset[int], SignedSupportVector]:
        return {vec.support: vec for vec in self.chosen}

    def choice(self, support: Iterable[int]) -> SignedSupportVector:
        key = frozenset(support)
        try:
            return self.by_support[key]
        except KeyError:
            raise InputError(f"no {self.side} with support {sorted(key)}") from None

    @cached_property
    def pos_by_support(self) -> dict[int, int]:
        """Support mask -> positive mask of the chosen vector on that support."""
        return {v.pos_mask | v.neg_mask: v.pos_mask for v in self.chosen}

    @cached_property
    def anti_masks(self) -> tuple[tuple[int, int], ...]:
        """(pos, neg) masks of the rejected direction of each support."""
        return tuple((v.neg_mask, v.pos_mask) for v in self.chosen)


class Acyclicity(NamedTuple):
    acyclic: bool
    witness: tuple[Fraction, ...] | None


def _supports_for(rep: RegularMatroidRep, side: Side, cap: int):
    if side == CIRCUIT:
        return enumerate_signed_circuits(rep, cap)
    if side == COCIRCUIT:
        return enumerate_signed_cocircuits(rep, cap)
    raise InputError(f"unknown signature side {side!r}")


def signature_from_weights(
    rep: RegularMatroidRep,
    weights: Sequence[int | Fraction],
    side: Side,
    *,
    cap: int = DEFAULT_ELEMENT_CAP,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> Signature:
    """Choose, per support, the direction with positive weight inner product.

    A tie (inner product zero) keeps the canonical vector, whose lowest-index
    entry is +1.  That is the lexicographic refinement: the choices equal
    those of the tie-free weights D 3^n w + (3^(n-1), ..., 3, 1), D the lcm of
    the denominators, so every weight vector gives an acyclic signature and
    nothing is re-checked.  ``support_cap`` is accepted and ignored; it
    stays for compatibility.
    """
    w = [Fraction(x) for x in weights]
    if len(w) != rep.element_count:
        raise InputError("weight vector length disagrees with the ground set")
    chosen = tuple(-vec if sum(map(mul, w, vec.entries)) < 0 else vec
                   for vec in _supports_for(rep, side, cap))
    return Signature(side=side, chosen=chosen, provenance="weights")


def explicit_signature(
    rep: RegularMatroidRep,
    side: Side,
    choices: Iterable[SignedSupportVector | Sequence[int]],
    *,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> Signature:
    """Validate and package an explicit list of chosen directions.

    Every support must be chosen exactly once, and every choice must be one
    of the two signed vectors on its support.
    """
    tag = "kernel" if side == CIRCUIT else "image"
    chosen = [SignedSupportVector(_integers(
        raw.entries if isinstance(raw, SignedSupportVector) else raw, f"signed {side}"), tag)
        for raw in choices]
    return Signature(side, _checked_choices(rep, side, chosen, cap), "explicit")


def _checked_choices(
    rep: RegularMatroidRep, side: Side, chosen: Iterable[SignedSupportVector],
    cap: int = DEFAULT_ELEMENT_CAP,
) -> tuple[SignedSupportVector, ...]:
    """The one signature gate: the choices in the rep's order, or bad input if
    some choice is not +- the rep's signed circuit (cocircuit) on its support,
    or some support is chosen twice or not at all.
    """
    canonical = {v.pos_mask | v.neg_mask: v.entries for v in _supports_for(rep, side, cap)}
    seen: dict[int, SignedSupportVector] = {}
    for vec in chosen:
        support = vec.pos_mask | vec.neg_mask
        ref = canonical.get(support)
        if ref is None:
            raise InputError(f"no {side} with support {bits_of(support)}")
        if vec.entries != ref and vec.entries != tuple(-x for x in ref):
            raise InputError(f"{vec.entries} is not a signed {side} on its support")
        if support in seen:
            raise InputError(f"support {bits_of(support)} chosen twice")
        seen[support] = vec
    if missing := canonical.keys() - seen.keys():
        raise InputError(f"{side} support {bits_of(min(missing))} has no chosen direction")
    return tuple(map(seen.__getitem__, canonical))


def is_acyclic(
    rep: RegularMatroidRep, sig: Signature, cap: int = DEFAULT_SUPPORT_CAP
) -> Acyclicity:
    """Decide acyclicity by exact rational feasibility.

    Maximizes t subject to <w, v> >= t for every chosen vector v and the box
    -1 <= w_e <= 1; the signature is acyclic iff the maximum is positive, and
    the maximizing w is returned as a strict witness.
    """
    if len(sig.chosen) > cap:
        raise CapExceededError(f"{len(sig.chosen)} supports exceeds the cap {cap}")
    n = rep.element_count
    if any(len(vec.entries) != n for vec in sig.chosen):
        raise InputError("a chosen vector's length disagrees with the ground set")
    if not sig.chosen:
        return Acyclicity(True, tuple(Fraction(0) for _ in range(n)))
    # <w, v> - t >= 0 per chosen v, then +-w_j + 1 >= 0 per element j
    rows = [tuple(vec.entries) + (-1, 0) for vec in sig.chosen]
    rows += [tuple(s * (i == j) for i in range(n)) + (0, 1) for j in range(n) for s in (1, -1)]
    sup, point = fm.maximize(rows, n + 1, n)
    if sup is None or sup <= 0:
        return Acyclicity(False, None)
    witness = tuple(point[:n])
    # over one common denominator the strict check is integer dot products
    scale = lcm(*(w.denominator for w in witness))
    scaled = [w.numerator * (scale // w.denominator) for w in witness]
    for vec in sig.chosen:
        if sum(map(mul, scaled, vec.entries)) <= 0:
            raise InvariantViolationError("witness does not separate strictly")
    return Acyclicity(True, witness)


def directed_circuits_in(
    rep: RegularMatroidRep, o: Orientation, side: Side = CIRCUIT,
    cap: int = DEFAULT_ELEMENT_CAP,
) -> list[SignedSupportVector]:
    """All signed circuits (or cocircuits) whose arcs all appear in o."""
    m = _orientation_mask(o, rep.element_count)
    out = []
    for vec in _supports_for(rep, side, cap):
        for cand in (vec, -vec):
            if cand.in_orientation(m):
                out.append(cand)
    return out


def is_compatible(rep: RegularMatroidRep, o: Orientation | int, sig: Signature) -> bool:
    """True when every directed circuit in o is the chosen one for its support."""
    m = _orientation_mask(o, rep.element_count)
    for pos, neg in sig.anti_masks:
        if (pos & ~m) == 0 and (neg & m) == 0:
            return False
    return True


def _compatible_among(columns: Sequence[int], full: int, sig: Signature) -> int:
    """Bit-parallel ``is_compatible``: of the orientations in full whose bit e
    is set in columns[e], those compatible with sig.

    An orientation contains a vector when it agrees with the vector's positive
    arcs and disagrees with its negative ones, so the orientations containing
    an anti-chosen vector are an AND of columns; the compatible avoid them all.
    """
    containing = 0
    for pos, neg in sig.anti_masks:
        hit = full
        for e in bits_of(pos | neg):
            hit &= columns[e] if pos >> e & 1 else ~columns[e]
        containing |= hit
    return full & ~containing


def _compatible_set(rep: RegularMatroidRep, sig: Signature) -> int:
    """All orientations compatible with sig, as a 2^n-bit set (bit m is mask m)."""
    n = rep.element_count
    return _compatible_among(orientations_with_bit(n), (1 << (1 << n)) - 1, sig)


def canonical_weights(n: int) -> tuple[int, ...]:
    """Powers of three: never orthogonal to a nonzero {0,+-1} vector."""
    return tuple(3 ** j for j in range(n))


@lru_cache(maxsize=CACHE_SIZE)
def canonical_signature_pair(rep: RegularMatroidRep) -> tuple[Signature, Signature]:
    """The deterministic weight-induced signature pair used as a default."""
    w = canonical_weights(rep.element_count)
    return (
        signature_from_weights(rep, w, CIRCUIT),
        signature_from_weights(rep, w, COCIRCUIT),
    )
