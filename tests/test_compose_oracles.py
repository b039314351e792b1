"""The sweep compositions of IETs, PL maps and permutations against the
point-by-point code they replaced.

Each oracle below is the former ``compose``: it evaluates both maps at
every candidate breakpoint or support point with the linear-scan
``apply``/``_translation_at``/``FinPerm.__call__`` and sorts a set of
points, so it shares no cutting or merging logic with the sweep.  Normal
forms are unique, so the sweep must return exactly the oracle's value, and
the value must survive re-validation.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ccckit import iet as ietmod
from ccckit import perm as permmod
from ccckit import plhomeo as pl
from ccckit.core import trusted

from util import revalidates


def oracle_iet_compose(f: ietmod.IetMap, g: ietmod.IetMap) -> ietmod.IetMap:
    ginv = ietmod.inverse(g)
    ordered = sorted(set(g.breakpoints) | {ietmod.apply(ginv, c) for c in f.breakpoints})
    ts = [ietmod._translation_at(g, x) + ietmod._translation_at(f, ietmod.apply(g, x))
          for x in ordered[:-1]]
    return trusted(ietmod.IetMap, *ietmod._normal_form(ordered, ts))


def oracle_pl_compose(f: pl.PlMap, g: pl.PlMap) -> pl.PlMap:
    ginv = pl.inverse(g)
    xs = sorted({x for x, _ in g.vertices} | {pl.apply(ginv, x) for x, _ in f.vertices})
    return trusted(pl.PlMap, pl._drop_collinear([(x, pl.apply(f, pl.apply(g, x))) for x in xs]))


def oracle_perm_compose(a: permmod.FinPerm, b: permmod.FinPerm) -> permmod.FinPerm:
    images = ((x, a(b(x))) for x in set(a.support) | set(b.support))
    return trusted(permmod.FinPerm, tuple(sorted((x, y) for x, y in images if x != y)))


# ---------------------------------------------------------------------------
# Interval exchanges


@st.composite
def iet_map(draw):
    """An exchange of k pieces of [c, c + N), identity on [0, c) and beyond:
    bounds and supports vary, and the exchange may fix a piece or be the
    identity."""
    denom = draw(st.sampled_from([1, 2, 3, 12]))
    offset = Fraction(draw(st.integers(0, 2 * denom)), denom)
    lengths = [Fraction(n, denom)
               for n in draw(st.lists(st.integers(1, 3 * denom), min_size=0, max_size=5))]
    order = draw(st.permutations(range(len(lengths))))
    starts, cursor = {}, offset
    for idx in order:
        starts[idx] = cursor
        cursor += lengths[idx]
    bps, ts, pos = [Fraction(0), offset], [Fraction(0)], offset
    for idx, length in enumerate(lengths):
        pos += length
        bps.append(pos)
        ts.append(starts[idx] - (pos - length))
    if offset == 0:
        bps, ts = bps[1:], ts[1:]
    return ietmod.make_iet(bps, ts)


iet_maps = st.one_of(st.just(ietmod.IDENTITY), iet_map())


def check_iet(f, g):
    h = ietmod.compose(f, g)
    assert h == oracle_iet_compose(f, g)
    assert all(isinstance(x, Fraction) for x in h.breakpoints + h.translations)
    assert revalidates(h)


@settings(max_examples=400, deadline=None)
@given(iet_maps, iet_maps)
def test_iet_compose_matches_oracle(f, g):
    check_iet(f, g)


def test_iet_compose_cuts_at_the_bound_of_f():
    # g's interval [0, 2) maps onto [1, 3), which contains f.bound = 2: the
    # part landing beyond 2 is fixed by f, the rest is moved by it
    f = ietmod.make_iet([0, 1, 2], [1, -1])
    g = ietmod.rotation(3, 1)
    check_iet(f, g)
    assert ietmod.compose(f, g) == ietmod.make_iet([0, 1, 2, 3], [0, 1, -1])


def test_iet_compose_with_identity_and_disjoint_supports():
    f = ietmod.block_exchange(1)
    g = ietmod.make_iet([0, 4, 5, 6], [0, 1, -1])
    for a, b in ((f, g), (g, f), (f, ietmod.IDENTITY), (ietmod.IDENTITY, g),
                 (ietmod.IDENTITY, ietmod.IDENTITY)):
        check_iet(a, b)
    assert ietmod.compose(f, g) == ietmod.compose(g, f)


# ---------------------------------------------------------------------------
# PL maps


@st.composite
def pl_map(draw):
    """Vertices on a grid of one of several denominators, so that g's
    preimages of f's vertices are often not grid points; the identity and
    maps with a fixed prefix or suffix are included."""
    denom = draw(st.sampled_from([4, 7, 12, 32]))
    k = draw(st.integers(min_value=0, max_value=min(5, denom - 1)))
    inner = st.sets(st.integers(1, denom - 1), min_size=k, max_size=k)
    xs, ys = sorted(draw(inner)), sorted(draw(inner))
    return pl.make_pl([(0, 0)] + [(Fraction(x, denom), Fraction(y, denom))
                                  for x, y in zip(xs, ys)] + [(1, 1)])


pl_maps = st.one_of(st.just(pl.IDENTITY), pl_map())


def check_pl(f, g):
    h = pl.compose(f, g)
    assert h == oracle_pl_compose(f, g)
    assert revalidates(h)


@settings(max_examples=400, deadline=None)
@given(pl_maps, pl_maps)
def test_pl_compose_matches_oracle(f, g):
    check_pl(f, g)


def test_pl_compose_shared_and_disjoint_supports():
    b1 = pl.bump(Fraction(1, 4), Fraction(1, 2))
    b2 = pl.bump(Fraction(1, 2), Fraction(3, 4))
    t = pl.displacement_witness(Fraction(1, 4), Fraction(1, 2)).t
    for f, g in ((b1, b2), (b2, b1), (b1, b1), (t, b1), (b1, t), (t, pl.inverse(t)),
                 (b1, pl.IDENTITY), (pl.IDENTITY, t)):
        check_pl(f, g)
    assert pl.compose(b1, b2) == pl.compose(b2, b1)


# ---------------------------------------------------------------------------
# Permutations


@st.composite
def fin_perm(draw):
    points = draw(st.lists(st.integers(1, 20), unique=True, max_size=8))
    images = draw(st.permutations(points))
    return permmod.perm_from_mapping(dict(zip(points, images)))


perms = st.one_of(st.just(permmod.IDENTITY), fin_perm())


@settings(max_examples=400, deadline=None)
@given(perms, perms)
def test_perm_compose_matches_oracle(a, b):
    c = permmod.compose(a, b)
    assert c == oracle_perm_compose(a, b)
    assert permmod.perm_from_mapping(dict(c.mapping)) == c and revalidates(c)


def test_perm_compose_on_seeded_large_supports():
    rng = random.Random(0)
    for _ in range(20):
        a, b = (permmod.perm_from_mapping(dict(zip(pts, rng.sample(pts, len(pts)))))
                for pts in (rng.sample(range(1, 400), 120), rng.sample(range(1, 400), 120)))
        assert permmod.compose(a, b) == oracle_perm_compose(a, b)
