"""The sweep compositions of IETs, PL maps and permutations, and the
integer inverses of IETs and PL maps, against the point-by-point
``Fraction`` code they replaced.

Each oracle below is the former ``compose`` or ``inverse``: it works on
the ``Fraction`` values of the public ``breakpoints``/``translations``/
``vertices`` properties, evaluates maps with its own linear scans, sorts a
set of points and builds its result through the public ``make_iet``/
``make_pl``, so it shares no rescaling, cutting, interpolation or merging
logic with the integer kernels.  Normal forms in lowest terms are unique,
so each kernel must return exactly the oracle's value, and the value must
survive re-validation.

The integer ``plhomeo.apply`` is checked the same way against
``_pl_apply``, the linear scan over the ``Fraction`` vertices that the
former ``apply`` computed.

``perm.compose``, one merge of two ascending mappings, is checked against
two oracles: a point-by-point scan of the union of the supports, and the
dict-and-sort compose that the merge replaced.

Free-group substitution is checked the same way against the former
``_substitute_images``, which concatenates the images, builds an inverse
word per negative letter and freely reduces the whole list at the end;
reduced words are unique, so the streaming substitution must match it.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import perm as permmod
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit.core import trusted

from util import revalidates


def _translation_at(f: ietmod.IetMap, x: Fraction) -> Fraction:
    bps = f.breakpoints
    for a, b, t in zip(bps, bps[1:], f.translations):
        if a <= x < b:
            return t
    return Fraction(0)


def _iet_apply(f: ietmod.IetMap, x: Fraction) -> Fraction:
    return x + _translation_at(f, x)


def oracle_iet_inverse(f: ietmod.IetMap) -> ietmod.IetMap:
    bps = f.breakpoints
    pieces = sorted((a + t, b + t, -t) for a, b, t in zip(bps, bps[1:], f.translations))
    return ietmod.make_iet([Fraction(0)] + [hi for _, hi, _ in pieces],
                           [t for _, _, t in pieces])


def oracle_iet_compose(f: ietmod.IetMap, g: ietmod.IetMap) -> ietmod.IetMap:
    ginv = oracle_iet_inverse(g)
    ordered = sorted(set(g.breakpoints) | {_iet_apply(ginv, c) for c in f.breakpoints})
    ts = [_translation_at(g, x) + _translation_at(f, _iet_apply(g, x)) for x in ordered[:-1]]
    return ietmod.make_iet(ordered, ts)


def _pl_apply(f: pl.PlMap, x: Fraction) -> Fraction:
    v = f.vertices
    for (x0, y0), (x1, y1) in zip(v, v[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError(f"{x} outside [0, 1]")


def oracle_pl_inverse(f: pl.PlMap) -> pl.PlMap:
    return pl.make_pl([(y, x) for x, y in f.vertices])


def oracle_pl_compose(f: pl.PlMap, g: pl.PlMap) -> pl.PlMap:
    ginv = oracle_pl_inverse(g)
    xs = sorted({x for x, _ in g.vertices} | {_pl_apply(ginv, x) for x, _ in f.vertices})
    return pl.make_pl([(x, _pl_apply(f, _pl_apply(g, x))) for x in xs])


def oracle_perm_compose(a: permmod.FinPerm, b: permmod.FinPerm) -> permmod.FinPerm:
    images = ((x, a(b(x))) for x in set(a.support) | set(b.support))
    return trusted(permmod.FinPerm, tuple(sorted((x, y) for x, y in images if x != y)))


def oracle_perm_compose_dict_sort(a: permmod.FinPerm, b: permmod.FinPerm) -> permmod.FinPerm:
    """The former ``perm.compose``: a dict of every image, then a sort of
    every moved point."""
    a_images = dict(a.mapping)
    images = a_images | {x: a_images.get(y, y) for x, y in b.mapping}
    return trusted(permmod.FinPerm, tuple(sorted((x, y) for x, y in images.items() if x != y)))


def oracle_substitute_images(images, w: fg.FreeWord) -> fg.FreeWord:
    out: list[int] = []
    for x in w.letters:
        img = images[abs(x) - 1]
        out.extend(img.letters if x > 0 else fg.word_inv(img).letters)
    return trusted(fg.FreeWord, w.rank, fg.reduce_letters(out))


def oracle_aut_compose(phi: fg.FreeAutomorphism, psi: fg.FreeAutomorphism) -> fg.FreeAutomorphism:
    images = tuple(oracle_substitute_images(phi.images, w) for w in psi.images)
    inverse_images = tuple(oracle_substitute_images(psi.inverse_images, w)
                           for w in phi.inverse_images)
    return trusted(fg.FreeAutomorphism, phi.rank, images, inverse_images)


def is_integer_map(h) -> bool:
    fields = [getattr(h, name) for name in h._fields]
    return (type(fields[0]) is int
            and all(type(x) is int for nums in fields[1:] for x in nums))


# Denominators of different primes, so that f and g usually differ and the
# kernels must rescale both to their lcm.
DENOMS = [1, 2, 3, 7, 12]


# ---------------------------------------------------------------------------
# Interval exchanges


@st.composite
def iet_map(draw):
    """An exchange of k pieces of [c, c + N), identity on [0, c) and beyond:
    bounds and supports vary, piece lengths have mixed denominators, and
    the exchange may fix a piece or be the identity."""
    offset = Fraction(draw(st.integers(0, 4)), draw(st.sampled_from(DENOMS)))
    lengths = [Fraction(n, draw(st.sampled_from(DENOMS)))
               for n in draw(st.lists(st.integers(1, 6), min_size=0, max_size=5))]
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
    assert is_integer_map(h) and revalidates(h)


@settings(max_examples=400, deadline=None)
@given(iet_maps, iet_maps)
def test_iet_compose_matches_oracle(f, g):
    check_iet(f, g)


@settings(max_examples=200, deadline=None)
@given(iet_maps)
def test_iet_inverse_matches_oracle(f):
    h = ietmod.inverse(f)
    assert h == oracle_iet_inverse(f)
    assert is_integer_map(h) and revalidates(h)


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


def test_iet_compose_across_denominators():
    halves, thirds, sevenths = (ietmod.rotation(1, Fraction(1, d)) for d in (2, 3, 7))
    for a, b in ((halves, thirds), (thirds, sevenths), (sevenths, halves),
                 (halves, ietmod.inverse(halves)), (thirds, halves)):
        check_iet(a, b)
    # halves o halves is the identity: the result is reduced back to den 1
    assert ietmod.compose(halves, halves) == ietmod.IDENTITY
    assert ietmod.compose(halves, thirds).den == 6


# ---------------------------------------------------------------------------
# PL maps


@st.composite
def pl_map(draw):
    """Vertices with x and y on grids of independent denominators, so that
    slopes are rarely dyadic and g's preimages of f's vertices are often
    not grid points; the identity and maps with a fixed prefix or suffix
    are included."""
    dx, dy = draw(st.sampled_from([2, 3, 4, 7, 12, 32])), draw(st.sampled_from([2, 3, 4, 7, 12, 32]))
    k = draw(st.integers(min_value=0, max_value=min(5, dx - 1, dy - 1)))
    xs = sorted(draw(st.sets(st.integers(1, dx - 1), min_size=k, max_size=k)))
    ys = sorted(draw(st.sets(st.integers(1, dy - 1), min_size=k, max_size=k)))
    return pl.make_pl([(0, 0)] + [(Fraction(x, dx), Fraction(y, dy))
                                  for x, y in zip(xs, ys)] + [(1, 1)])


pl_maps = st.one_of(st.just(pl.IDENTITY), pl_map())


def check_pl(f, g):
    h = pl.compose(f, g)
    assert h == oracle_pl_compose(f, g)
    assert is_integer_map(h) and revalidates(h)


@settings(max_examples=400, deadline=None)
@given(pl_maps, pl_maps)
def test_pl_compose_matches_oracle(f, g):
    check_pl(f, g)


@settings(max_examples=200, deadline=None)
@given(pl_maps)
def test_pl_inverse_matches_oracle(f):
    h = pl.inverse(f)
    assert h == oracle_pl_inverse(f)
    assert is_integer_map(h) and revalidates(h)


def test_pl_compose_shared_and_disjoint_supports():
    b1 = pl.bump(Fraction(1, 4), Fraction(1, 2))
    b2 = pl.bump(Fraction(1, 2), Fraction(3, 4))
    t = pl.displacement_witness(Fraction(1, 4), Fraction(1, 2)).t
    for f, g in ((b1, b2), (b2, b1), (b1, b1), (t, b1), (b1, t), (t, pl.inverse(t)),
                 (b1, pl.IDENTITY), (pl.IDENTITY, t)):
        check_pl(f, g)
    assert pl.compose(b1, b2) == pl.compose(b2, b1)


pl_composites = st.lists(pl_map(), min_size=2, max_size=4).map(
    lambda fs: functools.reduce(pl.compose, fs))
points = st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6)


def check_pl_apply(f, extra=()):
    """The integer apply against the Fraction scan at every vertex, both
    ends, every vertex value taken as a point, and the extra points."""
    v = f.vertices
    for x in [x for x, _ in v] + [y for _, y in v] + [Fraction(0), Fraction(1)] + list(extra):
        y = pl.apply(f, x)
        assert type(y) is Fraction and y == _pl_apply(f, x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(pl_maps, pl_composites), st.lists(points, max_size=6))
def test_pl_apply_matches_oracle(f, extra):
    check_pl_apply(f, extra)


def test_pl_apply_matches_oracle_over_large_denominators():
    t = pl.displacement_witness("1/3", "5/7").t
    f = functools.reduce(pl.compose, [t, pl.bump("1/11", "6/13"), pl.inverse(t),
                                      pl.bump("2/9", "17/19")])
    tp = functools.reduce(pl.compose, [t] * 12)
    for g in (f, tp, pl.compose(f, tp)):
        assert g.den > 10 ** 6
        check_pl_apply(g, [Fraction(k, 997) for k in range(0, 998, 37)])


def test_pl_apply_takes_ints_and_strs_and_refuses_floats():
    f = pl.make_pl([(0, 0), (Fraction(1, 3), Fraction(4, 7)), (1, 1)])
    assert pl.apply(f, 0) == 0 and pl.apply(f, 1) == 1
    for text in ("1/3", "0.25", "5/6"):
        assert pl.apply(f, text) == _pl_apply(f, Fraction(text))
    for bad in (0.5, True):
        with pytest.raises(ValueError, match="exact rational"):
            pl.apply(f, bad)
    for outside in (-1, 2, "-1/5", "6/5"):
        with pytest.raises(ValueError, match="outside"):
            pl.apply(f, outside)


def test_pl_compose_across_denominators():
    # slopes 2/3, 4/3, 3/7, ...: interpolated vertices get new denominators
    f = pl.make_pl([(0, 0), (Fraction(1, 2), Fraction(1, 3)), (1, 1)])
    g = pl.make_pl([(0, 0), (Fraction(1, 3), Fraction(4, 7)), (1, 1)])
    t = pl.bump(Fraction(1, 7), Fraction(2, 3))
    for a, b in ((f, g), (g, f), (f, t), (t, g), (g, pl.inverse(f))):
        check_pl(a, b)
    assert pl.compose(f, pl.inverse(f)) == pl.IDENTITY


@functools.cache
def _pl_battery_composes(bound):
    """The distinct (f, g) of every ``compose`` call the pl battery makes at
    this bound, through ``PlFamily.mul``, in call order."""
    calls = []

    def recording(f, g):
        calls.append((f, g))
        return compose(f, g)

    compose = pl.compose
    pl.compose = recording
    try:
        suites.run_family("pl", bound=bound)
    finally:
        pl.compose = compose
    return list(dict.fromkeys(calls))


@pytest.mark.parametrize("bound", [8, 16, 64])
def test_pl_compose_matches_oracle_on_the_battery_products(bound):
    """The battery's own products: their denominators run past the 2..32
    grid of ``pl_map``, and each side is the one rescaled in some call, as
    the other side's denominator is a multiple of its own."""
    calls = _pl_battery_composes(bound)
    assert max(max(f.den, g.den) for f, g in calls) > 10 ** 6
    assert {(g.den % f.den == 0, f.den % g.den == 0) for f, g in calls} == {(True, False),
                                                                            (False, True)}
    for f, g in calls:
        check_pl(f, g)


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


def check_perm(a, b):
    c = permmod.compose(a, b)
    assert c == oracle_perm_compose(a, b) == oracle_perm_compose_dict_sort(a, b)
    assert revalidates(c)
    return c


@st.composite
def windowed_perm(draw):
    """A permutation of up to 24 points in a window of 40 that starts
    anywhere in 1..60, so that two draws' supports may interleave, overlap,
    or lie wholly before or after each other."""
    start = draw(st.integers(1, 60))
    points = draw(st.lists(st.integers(start, start + 39), unique=True, max_size=24))
    return permmod.perm_from_mapping(dict(zip(points, draw(st.permutations(points)))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.just(permmod.IDENTITY), windowed_perm()), windowed_perm())
def test_perm_merge_matches_both_oracles(a, b):
    check_perm(a, b)
    check_perm(b, a)


def test_perm_merge_cases():
    cyc = permmod.perm_from_cycles
    # points 1 and 2 are moved by both and fixed by the composite
    assert check_perm(cyc([[1, 2], [3, 4]]), cyc([[1, 2], [5, 6]])) == cyc([[3, 4], [5, 6]])
    assert check_perm(cyc([[1, 2, 3]]), cyc([[1, 3, 2]])) == permmod.IDENTITY
    # a's points lie after b's last point, and before b's first
    assert (check_perm(cyc([[10, 11], [12, 13]]), cyc([[1, 2]]))
            == cyc([[1, 2], [10, 11], [12, 13]]))
    assert check_perm(cyc([[1, 2]]), cyc([[10, 11]])) == cyc([[1, 2], [10, 11]])
    # interleaved supports
    assert check_perm(cyc([[1, 3, 5]]), cyc([[2, 4, 6]])) == cyc([[1, 3, 5], [2, 4, 6]])
    assert check_perm(cyc([[1, 3]]), cyc([[2, 3, 4]])) == cyc([[1, 3, 4, 2]])
    for a in (cyc([[1, 2, 3]]), permmod.IDENTITY):
        assert check_perm(permmod.IDENTITY, a) == a
        assert check_perm(a, permmod.IDENTITY) == a
    # the perm 256 battery's witness and 256-cycle: t c t is the cycle moved by 256
    t, c = permmod.block_swap(256), cyc([list(range(1, 257))])
    tc, ct = check_perm(t, c), check_perm(c, t)
    assert len(tc.mapping) == len(ct.mapping) == 512
    assert check_perm(tc, t) == check_perm(t, ct) == cyc([list(range(257, 513))])


def test_perm_compose_on_seeded_large_supports():
    rng = random.Random(0)
    for _ in range(20):
        a, b = (permmod.perm_from_mapping(dict(zip(pts, rng.sample(pts, len(pts)))))
                for pts in (rng.sample(range(1, 400), 120), rng.sample(range(1, 400), 120)))
        check_perm(a, b)


# ---------------------------------------------------------------------------
# Free-group automorphisms


@st.composite
def free_aut(draw, rank: int):
    """A product of up to 6 Nielsen moves, inverse Nielsen moves, inversions
    and permutations of F_rank, multiplied by the oracle."""
    kinds = ["inversion", "permutation"] + (["nielsen", "nielsen^-1"] if rank >= 2 else [])
    phi = fg.identity_aut(rank)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind.startswith("nielsen"):
            i, j = draw(st.lists(st.integers(1, rank), min_size=2, max_size=2, unique=True))
            move = fg.nielsen_aut(rank, i, j)
            if kind == "nielsen^-1":
                move = fg.aut_inverse(move)
        elif kind == "inversion":
            move = fg.inversion_aut(rank, draw(st.integers(1, rank)))
        else:
            images = draw(st.permutations(range(1, rank + 1)))
            move = fg.permutation_aut(rank, dict(zip(range(1, rank + 1), images)))
        phi = oracle_aut_compose(phi, move)
    return phi


@st.composite
def free_auts_and_word(draw):
    """Two automorphisms of F_rank, rank 1..8, and a word of up to 20 letters."""
    rank = draw(st.integers(1, 8))
    letters = draw(st.lists(st.sampled_from([s * k for k in range(1, rank + 1) for s in (1, -1)]),
                            max_size=20))
    return draw(free_aut(rank)), draw(free_aut(rank)), fg.word(rank, letters)


def aut_revalidates(phi: fg.FreeAutomorphism) -> bool:
    return revalidates(phi) and all(revalidates(w) for w in phi.images + phi.inverse_images)


@settings(max_examples=400, deadline=None)
@given(free_auts_and_word())
def test_substitute_matches_oracle(case):
    phi, psi, w = case
    for chi in (phi, psi, fg.aut_inverse(phi)):
        v = fg._substitute_images(chi.images, w)
        assert v == oracle_substitute_images(chi.images, w)
        assert revalidates(v)


@settings(max_examples=400, deadline=None)
@given(free_auts_and_word())
def test_aut_compose_matches_oracle(case):
    phi, psi, _ = case
    for a, b in ((phi, psi), (psi, phi), (phi, phi)):
        c = fg.aut_compose(a, b)
        assert c == oracle_aut_compose(a, b)
        assert aut_revalidates(c)
    assert fg.aut_compose(phi, fg.aut_inverse(phi)) == fg.identity_aut(phi.rank)
    assert fg.aut_compose(fg.aut_inverse(phi), phi) == fg.identity_aut(phi.rank)


def test_aut_compose_on_the_aut_free_battery_generators():
    """Rank 64, as the aut-free battery at size 32: block swaps, a cyclic
    permutation and identity-extended Nielsen moves and inversions."""
    n, rank = 32, 64
    swap = fg.block_swap_aut(n)
    moves = [fg.extend_rank(m, rank) for m in (
        fg.nielsen_aut(n, 1, 2), fg.inversion_aut(n, 3),
        fg.permutation_aut(n, {i: i % n + 1 for i in range(1, n + 1)}))]
    elements = [swap] + moves
    for a in elements:
        for b in elements:
            c = fg.aut_compose(a, b)
            assert c == oracle_aut_compose(a, b) and aut_revalidates(c)
            conj = fg.aut_compose(fg.aut_compose(swap, c), swap)
            assert conj == oracle_aut_compose(oracle_aut_compose(swap, c), swap)
