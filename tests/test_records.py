"""The record contract shared by every element, witness and battery type,
and the cost of importing the command line interface.

``core.Record`` replaces generated dataclass code: each type declares its
fields once, in its ``__init__`` signature.  These tests pin what the
dataclass version gave: equality by class and fields, the hash of the
field tuple, the ``Name(field=value, ...)`` repr, frozen fields, keyword
construction with defaults, and ``util.replace`` through the validating
constructor.  A report's checks are plain dicts, not records (see
test_core).
"""

import inspect
import os
import subprocess
import sys

import pytest

import ccckit
from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit import wreath as w
from ccckit.core import Finite, GeneratorSet, Record, Witness, ZMode, trusted
from ccckit.perm import IDENTITY, PERM, FinPerm, block_swap

from families import FAMILIES
from util import replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# (record, its field names, its repr as the dataclass version printed it)
RECORDS = [
    (Finite(2), ("n",), "Finite(n=2)"),
    (ZMode(), ("bound",), "ZMode(bound=8)"),
    (Witness(block_swap(1), Finite(2)), ("t", "mode"),
     "Witness(t=FinPerm(mapping=((1, 2), (2, 1))), mode=Finite(n=2))"),
    (GeneratorSet(PERM, (IDENTITY,)), ("family", "elements"),
     f"GeneratorSet(family={PERM!r}, elements=(FinPerm(mapping=()),))"),
    (fg.word(2, (1, -2)), ("rank", "letters"), "FreeWord(rank=2, letters=(1, -2))"),
    (fg.identity_aut(1), ("rank", "images", "inverse_images"),
     "FreeAutomorphism(rank=1, images=(FreeWord(rank=1, letters=(1,)),), "
     "inverse_images=(FreeWord(rank=1, letters=(1,)),))"),
    (braidmod.braid(3, (1, -2)), ("strands", "letters"), "BraidWord(strands=3, letters=(1, -2))"),
    (ietmod.rotation(3, 3, 1), ("den", "cuts", "shifts"),
     "IetMap(den=3, cuts=(0, 2, 3), shifts=(1, -2))"),
    (pl.bump(4, 1, 2), ("den", "xs", "ys"),
     "PlMap(den=16, xs=(0, 4, 6, 8, 16), ys=(0, 4, 7, 8, 16))"),
    (block_swap(1), ("mapping",), "FinPerm(mapping=((1, 2), (2, 1)))"),
    (mat.matrix([[1, 2], [0, 1]], 5), ("size", "rows", "modulus"),
     "SquareMatrix(size=2, rows=(((0, 1), (1, 2)), ((1, 1),)), modulus=5)"),
    (w.Tower((2, 2)).generators[1][0], ("base", "top"),
     "WreathElement(base=((0, 1),), top=0)"),
    (w.Tower((2,)).samples(1, 0), ("orders", "law", "outside", "members"),
     "TowerSamples(orders=(2,), law=((0, 1, 1),), outside=(1,), members=(2,))"),
    (w.WitnessChain(PERM, (IDENTITY,), (block_swap(1),), (2,)),
     ("family", "generators", "ts", "orders"),
     f"WitnessChain(family={PERM!r}, generators=(FinPerm(mapping=()),), "
     "ts=(FinPerm(mapping=((1, 2), (2, 1))),), orders=(2,))"),
    (suites.Stable("s", len, len, len, (suites.ENGINE,), (None,), len, len),
     ("name", "level", "generators", "embed", "checks", "rings", "label", "shift"),
     "Stable(name='s', level=<built-in function len>, generators=<built-in function len>, "
     "embed=<built-in function len>, checks=('engine',), rings=(None,), "
     "label=<built-in function len>, shift=<built-in function len>)"),
    (suites.FAMILIES["pl"], ("run", "params", "description", "fixed"),
     f"Battery(run={suites.pl_battery!r}, params={{'size': (2, 1, 3), 'bound': (8, 1, None)}}, "
     "description='compactly supported piecewise linear maps; displacement witness, bounded "
     "Z-mode', fixed=mappingproxy({}))"),
]
IDS = [type(x).__name__ for x, _, _ in RECORDS]


def values(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x)._fields)


def declared_record_types() -> set:
    declared = set()
    todo = [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("ccckit."):
                declared.add(sub)
            todo.append(sub)
    return declared


def test_every_record_type_is_covered():
    """The table above holds one instance of each record type in the package."""
    covered = {type(x) for x, _, _ in RECORDS}
    assert covered == declared_record_types()
    assert len(covered) == 16  # and VerificationReport, a plain mutable class


@pytest.mark.parametrize("x, fields, text", RECORDS, ids=IDS)
def test_fields_come_from_the_init_signature(x, fields, text):
    assert type(x)._fields == fields
    assert tuple(vars(x)) == fields  # stored in signature order


@pytest.mark.parametrize("x, fields, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_text(x, fields, text):
    assert repr(x) == text


# the last record, a Battery, holds a dict and is unhashable, as it was
@pytest.mark.parametrize("x, fields, text", RECORDS[:-1], ids=IDS[:-1])
def test_hash_is_the_hash_of_the_field_tuple(x, fields, text):
    assert hash(x) == hash(values(x))
    assert {x: 1}[trusted(type(x), *values(x))] == 1


class Shadow(Record):
    """A different record type, given another type's fields below."""

    def __init__(self, a, b):
        self.__dict__.update(a=a, b=b)


@pytest.mark.parametrize("x, fields, text", RECORDS, ids=IDS)
def test_equality_needs_the_same_class(x, fields, text):
    same = trusted(type(x), *values(x))
    assert x == same and not x != same
    twin = object.__new__(Shadow)
    twin.__dict__.update(vars(x))
    assert x != twin and twin != x
    assert x != values(x)


def test_equal_values_of_different_types_are_unequal():
    assert Finite(2) != ZMode(2)
    assert fg.FreeWord(2, (1,)) != braidmod.BraidWord(2, (1,))
    assert ietmod.IDENTITY != trusted(pl.PlMap, *values(ietmod.IDENTITY))


@pytest.mark.parametrize("x, fields, text", RECORDS, ids=IDS)
def test_fields_are_frozen(x, fields, text):
    before = dict(vars(x))
    for name in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(x, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert vars(x) == before


@pytest.mark.parametrize("x, fields, text", RECORDS, ids=IDS)
def test_replace_runs_post_init_again(x, fields, text, monkeypatch):
    calls = []
    validate = type(x).__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(type(x), "__post_init__", counting)
    copy = replace(x)
    assert copy == x and copy is not x
    assert len(calls) == 1 and calls[0] is copy
    assert trusted(type(x), *values(x)) == x
    assert len(calls) == 1  # trusted skips it



@pytest.mark.parametrize("x, fields, text", RECORDS, ids=IDS)
def test_trusted_refuses_a_wrong_value_count(x, fields, text):
    given = values(x)
    for wrong in (given[:-1], given + (None,)):
        with pytest.raises(ValueError, match=f"takes {len(fields)} field values, got {len(wrong)}"):
            trusted(type(x), *wrong)


# a mul result of each family in the law registry but Z, whose elements are ints
PRODUCTS = {label: entry.fam.mul(entry.t, entry.own[0]) for label, entry in FAMILIES.items()
            if label != "Z"}


@pytest.mark.parametrize("x", [x for x, _, _ in RECORDS] + list(PRODUCTS.values()),
                         ids=IDS + list(PRODUCTS))
def test_trusted_stores_the_fields_as_the_constructor_does(x):
    """trusted runs the class's own field store, so its instance dict is the
    one the public constructor leaves: the same fields in the same order."""
    cls, given = type(x), values(x)
    assert tuple(vars(x)) == cls._fields
    assert list(vars(trusted(cls, *given)).items()) == list(vars(cls(*given)).items())


class Counted(Record):
    """Counts its __post_init__ calls."""

    calls = 0

    def __init__(self, a, b=2):
        self.__dict__.update(a=a, b=b)

    def __post_init__(self):
        type(self).calls += 1


class CountedChild(Counted):
    """Inherits Counted's fields, store and __init__."""


def test_public_construction_runs_post_init_once():
    for cls in (Counted, CountedChild):
        cls.calls = 0
        x = cls(1)
        assert cls.calls == 1 and vars(x) == {"a": 1, "b": 2}
        assert cls(a=1, b=3).b == 3 and cls.calls == 2
        assert trusted(cls, 1, 2) == x and cls.calls == 2
        assert replace(x, a=5).a == 5 and cls.calls == 3
    assert CountedChild._fields == Counted._fields == ("a", "b")
    assert str(inspect.signature(Counted)) == "(a, b=2)"


def test_record_methods_come_from_the_package_source():
    """Importing the package runs no generated code: every function on every
    record type, the field store that trusted runs included, was compiled
    from a file of the package, not built by exec or compile."""
    package = os.path.dirname(ccckit.__file__) + os.sep
    for cls in {Record} | declared_record_types():
        functions = [cls._store] if cls is not Record else []
        for attr in vars(cls).values():
            attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
            if isinstance(attr, property):
                functions += [f for f in (attr.fget, attr.fset, attr.fdel) if f is not None]
            elif inspect.isfunction(attr):
                functions.append(attr)
        assert functions
        for f in functions:
            assert f.__code__.co_filename.startswith(package), (cls, f)


def test_replace_changes_fields_and_validates_them():
    assert replace(Finite(2), n=3) == Finite(3)
    assert replace(fg.word(2, (1,)), letters=(2, 1)) == fg.word(2, (2, 1))
    with pytest.raises(ValueError, match="finite witness order must be an int >= 2"):
        replace(Finite(2), n=1)
    with pytest.raises(ValueError, match="freely reduced"):
        replace(fg.word(2, (1,)), letters=(1, -1))
    with pytest.raises(TypeError):
        replace(Finite(2), order=3)


@pytest.mark.parametrize("cls, fields, message", [
    (FinPerm, ([(1, 2), (2, 1)],), "mapping must be a tuple of"),
    (FinPerm, (((1, 2), [2, 1]),), "mapping must be a tuple of"),
    (ietmod.IetMap, (2, [0, 1, 2], [1, -1]), "cuts and shifts must be tuples"),
    (ietmod.IetMap, (2, (0, 1, 2), [1, -1]), "cuts and shifts must be tuples"),
    (pl.PlMap, (4, [0, 2, 4], [0, 3, 4]), "xs and ys must be tuples"),
    (pl.PlMap, (4, (0, 2, 4), [0, 3, 4]), "xs and ys must be tuples"),
], ids=["FinPerm", "FinPerm-pair", "IetMap", "IetMap-shifts", "PlMap", "PlMap-ys"])
def test_sequence_fields_must_be_tuples(cls, fields, message):
    """A list where a field holds a tuple is refused first, for what it is:
    it would not hash, and it never equals the tuple normal form the other
    checks compare with.  The same data as tuples is a valid record."""
    with pytest.raises(ValueError, match=message):
        cls(*fields)

    def tuples(x):
        return tuple(map(tuples, x)) if isinstance(x, (list, tuple)) else x

    hash(cls(*map(tuples, fields)))


def test_keyword_construction_and_defaults():
    assert ZMode() == ZMode(8) == ZMode(bound=8)
    assert GeneratorSet(PERM).elements == ()
    assert mat.SquareMatrix(size=1, rows=(((0, 1),),)).modulus is None
    assert FinPerm(mapping=()) == IDENTITY


def test_battery_fixed_defaults_to_an_immutable_empty_mapping():
    battery = suites.Battery(suites.pl_battery, {"size": (2, 2, None)}, "perm")
    assert dict(battery.fixed) == {}
    with pytest.raises(TypeError):
        battery.fixed["moduli"] = [0]
    assert dict(suites.Battery(suites.pl_battery, {}, "perm").fixed) == {}


def test_import_loads_no_dataclasses_or_typing():
    """The CLI's cold start loads neither module nor what they pull in.  A
    subprocess, since this test process has imported them already."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ccckit.cli; "
            "print(' '.join(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
