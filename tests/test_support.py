"""Soundness of GroupFamily.support, the basis of the engine's commutation
certificates, with the product verdict ab = ba as the slow oracle.

The elements are Hypothesis products of each stable battery's generators,
their claimed conjugates (Stable.shift) and the witness, for the families
that give supports: perm, the matrix families over Z and Z/5, braid,
aut-free and iet.  The commutation test pairs a product of the generators
with a product of their conjugates by the witness.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit import suites
from ccckit.core import _disjoint, conjugate, runs

from util import ring_id, supports_overlap

SUPPORT_FAMILIES = ("perm", "gl", "sl", "e", "sp", "onn", "braid", "aut-free", "iet")


def _cases():
    for family in SUPPORT_FAMILIES:
        stable = suites.STABLE[family]
        for size in (2, 3):
            for ring in stable.rings:
                yield pytest.param(family, size, ring, id=f"{family}-{size}-{ring_id(ring)}")


def _battery(family, size, ring):
    """(ambient family, the witness t, the generators, their conjugates ^t g
    and their claimed conjugates when the record gives a shift) of one pass
    of the family's stable battery."""
    stable = suites.STABLE[family]
    ambient, t = stable.level(size, ring)
    gens = tuple(stable.embed(g, ambient) for g in stable.generators(size, ring))
    conjs = tuple(conjugate(ambient, t, g) for g in gens)
    claims = tuple(stable.shift(g, 1) for g in gens) if stable.shift else ()
    return ambient, t, gens, conjs, claims


def _alphabet(fam, letters):
    return letters + tuple(fam.inv(x) for x in letters)


def _inside(support):
    den, intervals = support
    return lambda x: any(Fraction(lo, den) <= x < Fraction(hi, den) for lo, hi in intervals)


def assert_identity_off_support(fam, a):
    """a is the identity off fam.support(a) and maps the support into
    itself, checked on the element's own data."""
    support = fam.support(a)
    den, intervals = support
    assert den >= 1
    assert all(lo < hi for lo, hi in intervals)
    assert all(hi <= lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
    inside = _inside(support)
    if isinstance(a, permmod.FinPerm):
        for x in range(1, max(a.support, default=0) + 3):
            assert inside(a(x)) if inside(x) else a(x) == x
    elif isinstance(a, mat.SquareMatrix):
        dense = a.entries
        for i in range(a.size):
            if not inside(i):
                unit = tuple(int(k == i) for k in range(a.size))
                assert dense[i] == unit
                assert tuple(row[i] for row in dense) == unit
    elif isinstance(a, braidmod.BraidWord):
        # sigma_i crosses strands i and i + 1
        assert all(inside(abs(x)) and inside(abs(x) + 1) for x in a.letters)
    elif isinstance(a, fg.FreeAutomorphism):
        for i, w in enumerate(a.images, start=1):
            if inside(i):
                assert all(inside(abs(x)) for x in w.letters)
            else:
                assert w.letters == (i,)
    else:
        assert isinstance(a, ietmod.IetMap)
        for k in range(4 * a.cuts[-1] + 8):
            x = Fraction(k, 4 * a.den)
            assert inside(ietmod.apply(a, x)) if inside(x) else ietmod.apply(a, x) == x


@pytest.mark.parametrize("family, size, ring", _cases())
def test_element_is_the_identity_off_its_support(family, size, ring):
    fam, t, gens, _, claims = _battery(family, size, ring)
    alphabet = _alphabet(fam, gens + claims + (t,))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(alphabet), max_size=5))
    def check(u):
        assert_identity_off_support(fam, fam.product(u))

    check()


@pytest.mark.parametrize("family, size, ring", _cases())
def test_disjoint_supports_commute(family, size, ring):
    """_disjoint(support(a), support(b)) implies ab = ba.  a is a product
    of the generators and b a product of their conjugates by the witness:
    the real ^t h and, for braid, whose real conjugates cross every strand,
    the claimed ones too.  t itself, which moves both blocks, is not drawn.
    The examples are derandomized, and some disjoint pair must be two
    elements other than the identity."""
    fam, _, gens, conjs, claims = _battery(family, size, ring)
    own = st.lists(st.sampled_from(_alphabet(fam, gens)), max_size=4)
    moved = st.lists(st.sampled_from(_alphabet(fam, conjs + claims)), max_size=4)
    disjoint = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(own, moved)
    def check(u, v):
        a, b = fam.product(u), fam.product(v)
        if _disjoint(fam.support(a), fam.support(b)):
            disjoint.append((a, b))
            assert fam.eq(fam.mul(a, b), fam.mul(b, a))

    check()
    assert any(not fam.is_identity(a) and not fam.is_identity(b) for a, b in disjoint)


def test_braid_words_on_disjoint_strands_commute():
    """In B_6, words whose supports are disjoint commute, by braids_equal.
    The battery draws above pair the first block's letters with the claimed
    conjugates on the second block; these words use any Artin letters, on
    either side, and some disjoint pairs must be two nontrivial braids."""
    fam = braidmod.BraidFamily(6)
    letters = [x for i in range(1, 6) for x in (i, -i)]
    words = st.lists(st.sampled_from(letters), min_size=1, max_size=4).map(
        lambda xs: braidmod.braid(6, xs))
    disjoint = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(words, words)
    def check(a, b):
        if _disjoint(fam.support(a), fam.support(b)):
            disjoint.append((a, b))
            assert braidmod.braids_equal(fam.mul(a, b), fam.mul(b, a))

    check()
    assert any(not fam.is_identity(a) and not fam.is_identity(b) for a, b in disjoint)


supports = st.tuples(
    st.integers(1, 6),
    st.lists(st.integers(0, 40), unique=True, max_size=8).map(
        lambda cuts: tuple(zip(sorted(cuts)[::2], sorted(cuts)[1::2]))))


@given(supports, supports)
def test_disjoint_agrees_with_fractions(sa, sb):
    assert _disjoint(sa, sb) == (not supports_overlap(sa, sb)) == _disjoint(sb, sa)
    assert not _disjoint(None, sb) and not _disjoint(sa, None)


@given(st.sets(st.integers(-20, 20)))
def test_runs_cover_exactly_the_indices(indices):
    intervals = runs(sorted(indices))
    assert {i for lo, hi in intervals for i in range(lo, hi)} == indices
    # maximal: consecutive runs do not touch
    assert all(hi < lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
