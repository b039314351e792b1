"""Soundness of GroupFamily.support, the basis of the engine's commutation
certificates, on every pass of the stable batteries that give supports,
and the interval helpers behind it.

The law suite (test_laws.py) checks each registered family on one battery
pass; the two tests here run its support laws on every pass at sizes 2
and 3: perm, the five matrix families over Z and Z/5, braid, aut-free and
iet at each block scale.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import braid as braidmod
from ccckit import suites
from ccckit.core import _disjoint, runs

from families import BATTERY_ORACLES, battery
from test_laws import disjoint_pairs_commute, holds, identity_off_support_law
from util import ring_id, supports_overlap

CASES = [pytest.param(family, size, ring, id=f"{family}-{size}-{ring_id(ring)}")
         for family in BATTERY_ORACLES for size in (2, 3) for ring in suites.STABLE[family].rings]


@pytest.mark.parametrize("family, size, ring", CASES)
def test_element_is_the_identity_off_its_support(family, size, ring):
    holds(identity_off_support_law, battery(family, size, ring), 40)


@pytest.mark.parametrize("family, size, ring", CASES)
def test_disjoint_supports_commute(family, size, ring):
    disjoint_pairs_commute(battery(family, size, ring))


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
