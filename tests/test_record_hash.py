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

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit import wreath as w
from ccckit.core import GeneratorSet, GroupFamily, trusted
from ccckit.perm import PERM

from families import FAMILIES
from test_records import IDS, RECORDS
from util import replace


_MAT_Z5 = mat.MatrixFamily(3, 5)

# element type -> strategy for its elements: the registered families whose
# elements are records, and free words
ELEMENTS = {
    **{name: f.elements for name, f in FAMILIES.items() if name != "Z"},
    "free word": st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=8).map(
        lambda letters: fg.word(3, letters)),
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
