import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import iet

from util import random_iet


def test_rotation_oracle():
    r = iet.rotation(1, Fraction(1, 3))
    assert iet.apply(r, 0) == Fraction(1, 3)
    assert iet.apply(r, Fraction(1, 2)) == Fraction(5, 6)
    assert iet.apply(r, Fraction(2, 3)) == 0
    assert iet.apply(r, 5) == 5  # tail fixed
    assert iet.apply(iet.rotation(1, 1), Fraction(1, 2)) == Fraction(1, 2)


def test_block_exchange_involution():
    t = iet.block_exchange(2)
    assert iet.compose(t, t) == iet.IDENTITY
    assert iet.apply(t, 1) == 3
    assert iet.apply(t, 3) == 1
    assert iet.apply(t, 4) == 4


@pytest.mark.parametrize("length", [0, -1, Fraction(-1, 2)])
def test_nonpositive_length_rejected(length):
    for make in (lambda: iet.rotation(length, Fraction(1, 3)), lambda: iet.block_exchange(length)):
        with pytest.raises(ValueError, match="block length must be > 0"):
            make()


def test_normal_form_merges_and_absorbs():
    f = iet.make_iet([0, 1, 2, 3], [1, 1, -2])
    assert f.breakpoints == (0, 2, 3)
    g = iet.make_iet([0, 1, 2], [0, 0])
    assert g == iet.IDENTITY
    h = iet.make_iet([0, 1, 2, 3], [1, -1, 0])
    assert h.breakpoints == (0, 1, 2)


def test_invalid_partitions_rejected():
    with pytest.raises(iet.InvalidIetError):
        iet.make_iet([0, 1], [1])  # image [1,2) leaves a gap at [0,1)... overlap
    with pytest.raises(iet.InvalidIetError):
        iet.make_iet([0, 1, 2], [1, 1])  # overlap
    with pytest.raises(iet.InvalidIetError):
        iet.make_iet([1, 2], [1])  # must start at 0
    with pytest.raises(iet.InvalidIetError):
        iet.IetMap(1, (0, 1, 2), (1, 1))  # not normal form and not a partition
    with pytest.raises(iet.InvalidIetError, match="lowest terms"):
        iet.IetMap(2, (0, 2, 4), (2, -2))  # block_exchange(1) over denominator 2


@pytest.mark.parametrize("bps, ts", [
    ([1, 2], [0]),        # does not start at 0; an identity interval hid it
    ([0, 2, 1], [0, 0]),  # not ascending; both intervals are identity
    ([1, 2], [1]),
    ([0, 1, 1, 2], [1, 0, -1]),  # empty interval
    ([], []),
    ([0, 1], []),
])
def test_malformed_raw_intervals_rejected(bps, ts):
    with pytest.raises(iet.InvalidIetError):
        iet.make_iet(bps, ts)


def test_unnormalized_constructor_rejected():
    with pytest.raises(iet.InvalidIetError, match="normal form"):
        iet.IetMap(1, (0, 1, 2), (0, 0))
    with pytest.raises(iet.InvalidIetError, match="lowest terms"):
        iet.IetMap(3, (0, 3, 6), (3, -3))
    with pytest.raises(iet.InvalidIetError, match="int"):
        iet.IetMap(1, (Fraction(0), Fraction(1), Fraction(2)), (Fraction(1), Fraction(-1)))
    assert iet.IetMap(2, (0, 1, 2), (1, -1)) == iet.block_exchange(Fraction(1, 2))


seeds = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=60)
@given(seeds)
def test_inverse_roundtrip(seed):
    f = random_iet(random.Random(seed))
    assert iet.compose(f, iet.inverse(f)) == iet.IDENTITY
    assert iet.compose(iet.inverse(f), f) == iet.IDENTITY


@settings(max_examples=60)
@given(seeds, seeds)
def test_compose_pointwise(s1, s2):
    rng = random.Random(s1 * 100003 + s2)
    f, g = random_iet(rng), random_iet(rng)
    h = iet.compose(f, g)
    top = max(h.bound, f.bound, g.bound) + 1
    for k in range(12):
        x = Fraction(k * top, 12)
        assert iet.apply(h, x) == iet.apply(f, iet.apply(g, x))


@settings(max_examples=40)
@given(seeds)
def test_bijection_on_rationals(seed):
    f = random_iet(random.Random(seed))
    pts = [Fraction(k, 7) for k in range(0, 7 * (int(f.bound) + 2))]
    images = sorted(iet.apply(f, x) for x in pts)
    assert len(set(images)) == len(pts)


def test_support_bound_and_lengths():
    f = iet.block_exchange(Fraction(3, 2))
    assert f.bound == 3
    cuts = f.breakpoints
    assert [b - a for a, b in zip(cuts, cuts[1:])] == [Fraction(3, 2), Fraction(3, 2)]


def test_render():
    assert iet.render_iet(iet.IDENTITY) == "id"
    assert iet.render_iet(iet.block_exchange(1)) == "[0,1) -> +1; [1,2) -> -1"


def test_apply_rejects_negative():
    with pytest.raises(ValueError):
        iet.apply(iet.IDENTITY, -1)
