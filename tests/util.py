"""Shared helpers for the test suite: seeded random elements per family,
a Hypothesis strategy for products of letters, and brute-force oracles
that only tests call."""

import random
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import strategies as st

from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit.core import conjugate, verify_ccc
from ccckit.rational import fmt
from ccckit.wreath import INT_Z


def ring_id(ring) -> str:
    """A Stable ring as test ids print it: a matrix modulus (None for Z) as
    it is, an iet block scale (num, den) as the rational it names."""
    return fmt(*ring) if isinstance(ring, tuple) else str(ring)


def replace(record, **changes):
    """A copy of record with the given fields changed, built through its
    public constructor, so __post_init__ validates it again."""
    return type(record)(**{**record.__dict__, **changes})


def revalidates(x) -> bool:
    """Re-run the public validation on x: ``replace(x)`` constructs a fresh
    instance from x's fields through the public constructor, so it raises
    on any broken invariant."""
    return replace(x) == x


def sign(a: permmod.FinPerm) -> int:
    """The sign of a permutation, +1 for even and -1 for odd."""
    return 1 if permmod.parity(a) == "even" else -1


def bounded_products(family, gens, max_len: int) -> list:
    """All products of the generators and their inverses of word length at
    most max_len, deduplicated by family equality.  Brute-force oracle
    material; keep the inputs small."""
    alphabet = list(gens) + [family.inv(g) for g in gens]
    seen = [family.identity()]
    frontier = [family.identity()]
    for _ in range(max_len):
        new_frontier = []
        for u in frontier:
            for g in alphabet:
                v = family.mul(u, g)
                if not any(family.eq(v, w) for w in seen):
                    seen.append(v)
                    new_frontier.append(v)
        frontier = new_frontier
    return seen


def products_of(family, letters, max_size: int = 4):
    """A Hypothesis strategy for products of up to max_size of the given
    letters, in the family."""
    return st.lists(st.sampled_from(letters), max_size=max_size).map(family.product)


def supports_overlap(sa, sb) -> bool:
    """Whether two supports (see GroupFamily.support) may meet: True when
    either is None, else whether two of their intervals share a point,
    compared as Fractions pair by pair.  The oracle for core._disjoint."""
    if sa is None or sb is None:
        return True
    (da, xs), (db, ys) = sa, sb
    return any(max(Fraction(a, da), Fraction(c, db)) < min(Fraction(b, da), Fraction(d, db))
               for a, b in xs for c, d in ys)


def over_den(values) -> tuple[int, list[int]]:
    """Rationals as (den, numerators), den the lcm of their denominators:
    the int data of a map an oracle or a strategy builds from Fractions."""
    qs = [Fraction(v) for v in values]
    den = lcm(*(q.denominator for q in qs))
    return den, [q.numerator * (den // q.denominator) for q in qs]


def iet_of(breakpoints, translations) -> ietmod.IetMap:
    """iet.make_iet on rational breakpoints and translations."""
    bps, ts = list(breakpoints), list(translations)
    den, nums = over_den(bps + ts)
    return ietmod.make_iet(den, nums[:len(bps)], nums[len(bps):])


def pl_of(vertices) -> pl.PlMap:
    """plhomeo.make_pl on rational vertices."""
    den, nums = over_den([c for x, y in vertices for c in (x, y)])
    return pl.make_pl(den, nums[0::2], nums[1::2])


def vertices(f: pl.PlMap) -> list[tuple[Fraction, Fraction]]:
    """f's vertices as Fractions."""
    return [(Fraction(x, f.den), Fraction(y, f.den)) for x, y in zip(f.xs, f.ys)]


def pl_at(f: pl.PlMap, x) -> Fraction:
    """f(x) for a rational x in [0, 1], as a Fraction, by a linear scan over
    f's Fraction vertices: the oracle of plhomeo.apply."""
    x = Fraction(x)
    v = vertices(f)
    for (x0, y0), (x1, y1) in zip(v, v[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise ValueError(f"{x} outside [0, 1]")


def iet_at(f: ietmod.IetMap, x) -> Fraction:
    """f(x) for a rational x >= 0, as a Fraction: the pointwise oracle of
    iet.compose.  The cuts are ints, so c <= x * den exactly when
    c <= floor(x * den)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"point must be >= 0, got {x}")
    j = bisect_right(f.cuts, x * f.den // 1)  # x lies in interval j - 1, or in the tail
    return x + Fraction(f.shifts[j - 1], f.den) if j < len(f.cuts) else x


def displacement_escalates(t: pl.PlMap, a, b, P: int) -> list[bool]:
    """Exact check of t^p(a) > t^(p-1)(b) for 1 <= p <= P, for rationals a
    and b, with their t-orbits walked here by ``pl_at``.  The oracle for
    the escalation record of pl.verify_displaced_supports."""
    out = []
    ta = Fraction(a)
    prev_b = Fraction(b)
    for _ in range(P):
        ta = pl_at(t, ta)
        out.append(ta > prev_b)
        prev_b = pl_at(t, prev_b)
    return out


def abelianize(phi: fg.FreeAutomorphism) -> mat.SquareMatrix:
    """The image of phi under abelianization Aut(F_n) -> GL_n(Z): column j
    is the exponent-sum vector of phi(x_j)."""
    n = phi.rank
    rows = [[0] * n for _ in range(n)]
    for j, w in enumerate(phi.images):
        for x in w.letters:
            rows[abs(x) - 1][j] += 1 if x > 0 else -1
    return mat.matrix(rows)


def wrong_braid_shift(g, p):
    """A wrong claimed conjugate for the braid battery: sigma_j to
    sigma_(j+n-1) in B_2n, where the block pass conjugates sigma_j to
    sigma_(j+n).  The negative control for Stable.shift."""
    return braidmod.shift(g, g.strands // 2 - 1)


def coset_index(tower, transversal, a) -> int:
    """The index i with a in transversal[i] B, B the tower's distinguished
    subgroup, found through ``tower.in_B``; the transversal must meet the
    coset exactly once."""
    A = tower.family
    hits = [i for i, r in enumerate(transversal) if tower.in_B(A.mul(A.inv(r), a))]
    assert len(hits) == 1, f"{len(hits)} transversal elements in the coset"
    return hits[0]


def extended_image(f, G, transversal, base, top):
    """The extension of a homomorphism f: A -> G to H wr_(A/B) A, the
    paper's extension step, at the element with entry h_i at the coset of
    transversal[i] for each (i, h_i) in base and with top element top: the
    product of ^f(transversal[i]) h_i in base order, times f(top)."""
    value = G.identity()
    for i, h in base:
        value = G.mul(value, conjugate(G, f(transversal[i]), h))
    return G.mul(value, f(top))


def factors_by_definition(chain, tower, u, level):
    """The factors of f(u) for u in the level-th tower group, level >= 2,
    from the definition with no memo: t^p f(u_p) t^-p for ascending p, then
    t^top, for t the level's witness."""
    fam = chain.family
    t = chain.ts[level - 1]
    level_fam = tower.families[level - 1]
    factors = []
    for q in range(chain.orders[level - 1]):
        inner = image_by_definition(chain, tower, value_at(level_fam, u, q), level - 1)
        factors.append(fam.mul(fam.mul(fam.power(t, q), inner), fam.power(t, -q)))
    return tuple(factors) + (fam.power(t, u.top),)


def image_by_definition(chain, tower, u, level):
    """f(u) for u in the level-th tower group, with no memo: t_1^u at level
    1, and above it the product of its factors in order, multiplied out
    from the identity."""
    fam = chain.family
    if level == 1:
        return fam.power(chain.ts[0], u)
    out = fam.identity()
    for factor in factors_by_definition(chain, tower, u, level):
        out = fam.mul(out, factor)
    return out


def oracle_sample(tower, rng):
    """Tower.sample as ``random.Random`` draws it: the length and the
    letters from ``rng.randint`` and ``rng.choice`` themselves."""
    word = []
    for _ in range(rng.randint(0, 8)):
        g, g_inv = rng.choice(tower.letters)
        word.append(g_inv if rng.random() < 0.5 else g)
    return tower.family.product(word)


def value_at(fam, u, x):
    """The entry of the wreath element u of fam at the point x mod n, or the
    base family's identity where u has none."""
    fam.check_element(u)
    INT_Z.check_element(x)
    x %= fam.n
    for y, g in u.base:
        if y == x:
            return g
    return fam.base_family.identity()


def oracle_in_B(tower, u, level):
    """Tower.in_B by its definition: at each level the top is a multiple of
    the order, and the entry at coordinate 0, read by ``value_at``, lies in
    the lower subgroup B."""
    if level == 1:
        return u % tower.orders[0] == 0
    if u.top % tower.orders[level - 1]:
        return False
    return oracle_in_B(tower, value_at(tower.families[level - 1], u, 0), level - 1)


def random_perm(rng: random.Random, n: int = 5) -> permmod.FinPerm:
    points = list(range(1, n + 1))
    images = points[:]
    rng.shuffle(images)
    return permmod.perm_from_mapping(dict(zip(points, images)))


def random_iet(rng: random.Random, max_pieces: int = 5, denom: int = 12) -> ietmod.IetMap:
    """A random interval exchange: random partition of [0, N) into
    intervals with lengths in (1/denom)Z, rearranged by a random
    permutation."""
    k = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, denom * (k + 2)), k))
    lengths = [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])]
    order = list(range(k))
    rng.shuffle(order)
    starts = {}
    cursor = 0
    for idx in order:
        starts[idx] = cursor
        cursor += lengths[idx]
    bps = [0]
    ts = []
    for idx in range(k):
        ts.append(starts[idx] - bps[-1])
        bps.append(bps[-1] + lengths[idx])
    return ietmod.make_iet(denom, bps, ts)


CLOSURE_LABELS = ("perm", "sl2", "iet")  # the closure battery's H, in its order


def closure_engine_inputs() -> dict:
    """label -> (H, witness) of each engine call the closure battery makes
    at its defaults: H embedded at coordinate 0 of the wreath product, and
    the top shift x at Finite(2)."""
    with mock.patch.object(suites, "verify_ccc", wraps=verify_ccc) as engine:
        suites.run_family("closure")
    return dict(zip(CLOSURE_LABELS, (call.args for call in engine.call_args_list), strict=True))
