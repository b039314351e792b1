"""The hash that ``core.Record`` computes once per object.

A record's fields never change, so its hash, the hash of its field tuple,
is computed on the first call and kept in the ``_hash`` slot, outside
``__dict__``.  These tests draw elements of every family and check that
the kept value is the field-tuple hash, that it leaks into no field,
``repr`` or ``==``, that copies and pickles of hashed and unhashed
records carry the fields alone, and that an unhashable record keeps
nothing.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit import wreath as w
from ccckit.core import GeneratorSet, GroupFamily, replace, trusted
from ccckit.perm import PERM, perm_from_cycles

from test_records import IDS, RECORDS
from util import products_of


def _tower_elements(depth: int):
    tower = w.Tower((2,) * depth)
    fam = tower.family
    gens = tower.generators[-1]
    return products_of(fam, list(gens) + [fam.inv(g) for g in gens], max_size=6)


_MAT_Z, _MAT_Z5 = mat.MatrixFamily(3), mat.MatrixFamily(3, 5)
_BRAID_4 = braidmod.BraidFamily(4)
_AUT_3 = fg.FreeAutFamily(3)

# element type -> strategy for its elements
ELEMENTS = {
    "perm": products_of(PERM, [perm_from_cycles([[1, 2, 3]]), perm_from_cycles([[1, 2]]),
                               perm_from_cycles([[3, 4, 5, 6]])]),
    "matrix over Z": products_of(_MAT_Z, [mat.elementary(3, i, j, r) for i in range(1, 4)
                                          for j in range(1, 4) for r in (1, -2) if i != j]),
    "matrix over Z/5": products_of(_MAT_Z5, [mat.elementary(3, i, j, r, 5)
                                             for i in range(1, 4) for j in range(1, 4)
                                             for r in (1, 3) if i != j]),
    "braid word": products_of(_BRAID_4, [braidmod.braid(4, (x,))
                                         for x in (1, 2, 3, -1, -2, -3)]),
    "free word": st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=8).map(
        lambda letters: fg.word(3, letters)),
    "free automorphism": products_of(_AUT_3, [fg.nielsen_aut(3, 1, 2), fg.inversion_aut(3, 2),
                                              fg.permutation_aut(3, {1: 2, 2: 3, 3: 1})]),
    "iet": products_of(ietmod.IET, [ietmod.rotation(Fraction(3, 2), Fraction(1, 2)),
                                    ietmod.rotation(2, Fraction(1, 3)),
                                    ietmod.block_exchange(Fraction(3, 4))]),
    "pl": products_of(pl.PL, [pl.bump(Fraction(a, 16), Fraction(b, 16))
                              for a, b in ((1, 5), (2, 9), (7, 15))]
                      + [pl.displacement_witness("1/4", "1/2").t]),
    **{f"wreath depth {d}": _tower_elements(d) for d in (2, 3, 4)},
}


def _pickled(x, protocol):
    return pickle.loads(pickle.dumps(x, protocol))


def field_tuple_hash(x) -> int:
    return hash(tuple(x.__dict__.values()))


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hash_is_computed_once_as_the_field_tuple_hash(name, data):
    x = data.draw(ELEMENTS[name])
    fields, text = dict(x.__dict__), repr(x)
    fresh = trusted(type(x), *fields.values())  # equal, and not hashed yet
    value = hash(x)
    assert value == field_tuple_hash(x)
    assert hash(x) == hash(x) == value  # kept, not recomputed differently
    assert x._hash == value
    assert x.__dict__ == fields and "_hash" not in vars(x)
    assert repr(x) == text
    assert x == fresh and fresh == x
    assert hash(fresh) == value and hash(replace(x)) == value
    for y in (copy.deepcopy(x), _pickled(x, pickle.HIGHEST_PROTOCOL)):
        assert y == x and vars(y) == fields and hash(y) == value


@pytest.mark.parametrize("name", sorted(ELEMENTS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_equal_values_hash_alike(name, data):
    x, y = data.draw(ELEMENTS[name]), data.draw(ELEMENTS[name])
    hash(y)  # one side hashed before the comparison, one after
    if x == y:
        assert hash(x) == hash(y)


def test_unhashable_record_raises_every_time_and_keeps_nothing():
    battery = suites.FAMILIES["pl"]
    fields = dict(vars(battery))
    for _ in range(3):
        with pytest.raises(TypeError, match="unhashable"):
            hash(battery)
        assert not hasattr(battery, "_hash")
    assert vars(battery) == fields


COPIES = [("copy", copy.copy), ("deepcopy", copy.deepcopy)] + [
    (f"pickle {p}", lambda x, p=p: _pickled(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]


# the families of one instance; a copy or pickle of one is the instance
SINGLETONS = (PERM, pl.PL, ietmod.IET, w.INT_Z)


def _parametrized(v) -> bool:
    return isinstance(v, GroupFamily) and not any(v is f for f in SINGLETONS)


@pytest.mark.parametrize("family", SINGLETONS, ids=[f.name for f in SINGLETONS])
def test_singleton_families_copy_and_pickle_to_themselves(family):
    for label, make in COPIES:
        assert make(family) is family, label


# the last record, a Battery, is unhashable; the added GeneratorSet holds a
# parametrized family
@pytest.mark.parametrize("hashed", [False, True], ids=["unhashed", "hashed"])
@pytest.mark.parametrize("x, fields, text", RECORDS[:-1] + [
    (GeneratorSet(_MAT_Z5, (mat.elementary(3, 1, 2, 1, 5),)), None, None)],
    ids=IDS[:-1] + ["GeneratorSet-matrix"])
def test_copies_and_pickles_carry_the_fields_alone(x, fields, text, hashed):
    x = trusted(type(x), *x.__dict__.values())  # a fresh object, not hashed yet
    if hashed:
        hash(x)
    for label, make in COPIES:
        y = make(x)
        assert type(y) is type(x) and "_hash" not in vars(y), label
        if label != "copy" and any(map(_parametrized, vars(x).values())):
            # a parametrized family is equal only to itself, so a deep copy
            # of a record that holds one holds another family: equal in
            # every other field
            assert [type(v) for v in vars(y).values()] == [type(v) for v in vars(x).values()]
            assert {k: v for k, v in vars(y).items() if not _parametrized(v)} == {
                k: v for k, v in vars(x).items() if not _parametrized(v)}, label
            continue
        assert y == x and x == y and vars(y) == vars(x), label
        assert hash(y) == hash(x) == field_tuple_hash(y), label
