"""An orientation is stored as its mask; wrong-length orientations are refused.

``Orientation`` keeps two ints, the mask (bit j set when element j agrees
with its reference arc) and the number of elements.  Every function that
reads an orientation against a ground set refuses one of another length,
and an int mask outside [0, 2^n), with ``InputError``.
"""

import copy
import dataclasses
import pickle

import pytest

from oribij import (
    BijectionTable,
    HalfOpenCell,
    InputError,
    Orientation,
    RationalPoint,
    canonical_signature_pair,
    cell_contains,
    cell_count_polynomial,
    circuit_class_representative,
    cocircuit_class_representative,
    directed_circuits_in,
    is_compatible,
)
from oribij import core


@pytest.mark.parametrize("n", range(7))
def test_signs_and_masks_give_the_same_orientation(n):
    for m in range(1 << n):
        signs = tuple(bool(m >> j & 1) for j in range(n))
        a, b = Orientation(signs), Orientation.from_mask(n, m)
        assert a == b and hash(a) == hash(b)
        for o in (a, b):
            assert o.signs == signs
            assert o.vector() == tuple(int(s) for s in signs)
            assert len(o) == o.size == n
            assert o.mask == m
            assert Orientation(o.signs) == o


def test_reference_and_empty_orientations():
    for n in range(5):
        ref = Orientation.reference(n)
        assert ref.mask == (1 << n) - 1 and ref.signs == (True,) * n
        assert ref == Orientation((True,) * n)
    empty = Orientation(())
    assert len(empty) == 0 and empty.mask == 0 and empty.signs == ()
    assert empty == Orientation.from_mask(0, 0) == Orientation.reference(0)


def test_constructor_takes_any_iterable_of_signs():
    assert Orientation([True, False, True]) == Orientation.from_mask(3, 5)
    assert Orientation(s for s in (False, True)) == Orientation.from_mask(2, 2)


def test_from_mask_refuses_a_mask_outside_the_ground_set():
    for n, mask in ((2, 5), (2, 4), (3, -1), (0, 1)):
        with pytest.raises(InputError, match="outside the ground set"):
            Orientation.from_mask(n, mask)
    assert Orientation.reference(3) == Orientation.from_mask(3, 7)
    assert Orientation.reference(0) == Orientation(())


def test_equal_masks_of_different_lengths_are_unequal():
    assert Orientation.from_mask(3, 5) != Orientation.from_mask(4, 5)
    assert Orientation(()) != Orientation((False,))


def test_orientations_are_frozen_and_have_no_instance_dict():
    o = Orientation.from_mask(3, 5)
    for name, value in (("mask", 1), ("size", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(o, name, value)
    assert o == Orientation.from_mask(3, 5)
    assert not hasattr(o, "__dict__")


def test_orientations_copy_and_pickle():
    for o in (Orientation.from_mask(4, 9), Orientation(()), Orientation((True, False))):
        assert copy.copy(o) == o and copy.deepcopy(o) == o
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(o, protocol))
            assert back == o and back.signs == o.signs and hash(back) == hash(o)


def test_the_mask_helper_refuses_other_lengths_and_masks_outside_the_ground_set():
    assert core._orientation_mask(Orientation.from_mask(3, 6), 3) == 6
    assert [core._orientation_mask(m, 3) for m in range(8)] == list(range(8))
    for bad in (Orientation.from_mask(2, 1), Orientation.from_mask(4, 1)):
        with pytest.raises(InputError, match="orientation length disagrees"):
            core._orientation_mask(bad, 3)
    for bad in (8, -1, 1 << 40):
        with pytest.raises(InputError, match="orientation mask lies outside"):
            core._orientation_mask(bad, 3)


# -- wrong-length refusals, one test per function ------------------------------

SHORT, LONG = Orientation((True,)), Orientation((True,) * 4)


@pytest.fixture
def triangle_setup(triangle_rep):
    sig, cosig = canonical_signature_pair(triangle_rep)
    return triangle_rep, sig, cosig, BijectionTable.build(triangle_rep, sig, cosig)


def test_subgraph_of_refuses_a_wrong_length_orientation(triangle_setup):
    table = triangle_setup[3]
    for o in (SHORT, LONG):
        with pytest.raises(InputError):
            table.subgraph_of(o)


def test_tag_of_refuses_a_wrong_length_orientation(triangle_setup):
    table = triangle_setup[3]
    for o in (SHORT, LONG):
        with pytest.raises(InputError):
            table.tag_of(o)


def test_is_compatible_refuses_a_wrong_length_orientation(triangle_setup):
    rep, sig, cosig, _ = triangle_setup
    for o in (SHORT, LONG, 8, -1):
        for s in (sig, cosig):
            with pytest.raises(InputError):
                is_compatible(rep, o, s)


def test_directed_circuits_in_refuses_a_wrong_length_orientation(triangle_setup):
    rep = triangle_setup[0]
    for o in (SHORT, LONG):
        for side in ("circuit", "cocircuit"):
            with pytest.raises(InputError):
                directed_circuits_in(rep, o, side)


def test_cell_count_polynomial_refuses_a_wrong_length_orientation(triangle_setup):
    table = triangle_setup[3]
    for o in (SHORT, LONG, 8, -1):
        with pytest.raises(InputError):
            cell_count_polynomial(table, [Orientation.from_mask(3, 0), o])


def test_class_representatives_refuse_a_wrong_length_orientation(triangle_setup):
    rep, sig, cosig, _ = triangle_setup
    for o in (SHORT, LONG):
        with pytest.raises(InputError):
            circuit_class_representative(rep, o, sig)
        with pytest.raises(InputError):
            cocircuit_class_representative(rep, o, cosig)


def test_cell_contains_refuses_a_point_of_another_dimension():
    cell = HalfOpenCell(Orientation.from_mask(3, 5), frozenset({1}))
    assert cell_contains(cell, RationalPoint.of([1, "1/2", 1]))
    for coords in ([1, "1/2"], [1, "1/2", 1, 0]):
        with pytest.raises(InputError):
            cell_contains(cell, RationalPoint.of(coords))
