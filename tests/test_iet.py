import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import iet

from util import iet_at, random_iet


def test_rotation_oracle():
    r = iet.rotation(3, 3, 1)  # [0, 1) by 1/3
    assert iet_at(r, 0) == Fraction(1, 3)
    assert iet_at(r, Fraction(1, 2)) == Fraction(5, 6)
    assert iet_at(r, Fraction(2, 3)) == 0
    assert iet_at(r, 5) == 5  # tail fixed
    assert iet.rotation(1, 1, 1) == iet.IDENTITY


def test_block_exchange_involution():
    t = iet.block_exchange(1, 2)
    assert iet.compose(t, t) == iet.IDENTITY
    assert iet_at(t, 1) == 3
    assert iet_at(t, 3) == 1
    assert iet_at(t, 4) == 4


@pytest.mark.parametrize("length", [0, -1, Fraction(-1, 2)])
def test_nonpositive_length_rejected(length):
    n, d = Fraction(length).as_integer_ratio()
    # the rotation by 1/3 = d / 3d
    for make in (lambda: iet.rotation(3 * d, 3 * n, d), lambda: iet.block_exchange(d, n)):
        with pytest.raises(ValueError, match="block length must be > 0"):
            make()


def test_normal_form_merges_and_absorbs():
    f = iet.make_iet(1, [0, 1, 2, 3], [1, 1, -2])
    assert (f.den, f.cuts, f.shifts) == (1, (0, 2, 3), (1, -2))
    g = iet.make_iet(1, [0, 1, 2], [0, 0])
    assert g == iet.IDENTITY
    h = iet.make_iet(1, [0, 1, 2, 3], [1, -1, 0])
    assert h.cuts == (0, 1, 2)
    assert iet.make_iet(2, [0, 2, 4], [2, -2]) == iet.block_exchange(1, 1)  # lowest terms


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError, match=r"do not partition \[0, 1\): gap/overlap at 1$"):
        iet.make_iet(1, [0, 1], [1])  # image [1,2) leaves a gap at [0,1)... overlap
    with pytest.raises(ValueError, match=r"do not partition \[0, 2\): gap/overlap at 1$"):
        iet.make_iet(1, [0, 1, 2], [1, 1])  # overlap
    with pytest.raises(ValueError, match="breakpoints must start at 0"):
        iet.make_iet(1, [1, 2], [1])  # must start at 0
    with pytest.raises(ValueError, match=r"do not partition \[0, 2\): gap/overlap at 1$"):
        iet.IetMap(1, (0, 1, 2), (1, 1))  # not normal form and not a partition
    with pytest.raises(ValueError, match="lowest terms"):
        iet.IetMap(2, (0, 2, 4), (2, -2))  # block_exchange(1) over denominator 2


@pytest.mark.parametrize("bps, ts, why", [
    ([1, 2], [0], "must start at 0"),  # an identity interval hid it
    ([0, 2, 1], [0, 0], "not strictly ascending: 0, 2, 1"),  # both intervals are identity
    ([1, 2], [1], "must start at 0"),
    ([0, 1, 1, 2], [1, 0, -1], "not strictly ascending: 0, 1, 1, 2"),  # empty interval
    ([], [], "must start at 0"),
    ([0, 1], [], "one translation per finite interval"),
], ids=[f"bps{i}-ts{i}" for i in range(6)])
def test_malformed_raw_intervals_rejected(bps, ts, why):
    with pytest.raises(ValueError, match=why):
        iet.make_iet(1, bps, ts)


def test_unnormalized_constructor_rejected():
    with pytest.raises(ValueError, match="normal form"):
        iet.IetMap(1, (0, 1, 2), (0, 0))
    with pytest.raises(ValueError, match="lowest terms"):
        iet.IetMap(3, (0, 3, 6), (3, -3))
    with pytest.raises(ValueError, match="int"):
        iet.IetMap(1, (Fraction(0), Fraction(1), Fraction(2)), (Fraction(1), Fraction(-1)))
    assert iet.IetMap(2, (0, 1, 2), (1, -1)) == iet.block_exchange(2, 1)


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
    top = max(Fraction(m.cuts[-1], m.den) for m in (h, f, g)) + 1
    for k in range(12):
        x = Fraction(k * top, 12)
        assert iet_at(h, x) == iet_at(f, iet_at(g, x))


@settings(max_examples=40)
@given(seeds)
def test_bijection_on_rationals(seed):
    f = random_iet(random.Random(seed))
    pts = [Fraction(k, 7) for k in range(0, 7 * (f.cuts[-1] // f.den + 2))]
    images = sorted(iet_at(f, x) for x in pts)
    assert len(set(images)) == len(pts)


def test_support_bound_and_lengths():
    f = iet.block_exchange(2, 3)  # blocks of length 3/2
    assert (f.den, f.cuts[-1]) == (2, 6)  # bound 3
    assert [b - a for a, b in zip(f.cuts, f.cuts[1:])] == [3, 3]


def test_render():
    assert iet.render_iet(iet.IDENTITY) == "id"
    assert iet.render_iet(iet.block_exchange(1, 1)) == "[0,1) -> +1; [1,2) -> -1"
    assert iet.render_iet(iet.block_exchange(2, 3)) == "[0,3/2) -> +3/2; [3/2,3) -> -3/2"


def test_apply_rejects_negative():
    with pytest.raises(ValueError):
        iet_at(iet.IDENTITY, -1)
