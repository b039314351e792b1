"""Shared helpers for the test suite: seeded random elements per family,
a Hypothesis strategy for products of letters, and brute-force oracles
that only tests call."""

import random
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit.core import conjugate, replace, verify_ccc
from ccckit.rational import exact, fmt


def ring_id(ring) -> str:
    """A Stable ring as test ids print it: a matrix modulus (None for Z) as
    it is, an iet block scale (num, den) as the rational it names."""
    return fmt(*ring) if isinstance(ring, tuple) else str(ring)


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


def displacement_escalates(t: pl.PlMap, a, b, P: int) -> list[bool]:
    """Exact check of t^p(a) > t^(p-1)(b) for 1 <= p <= P, with a and b
    taken through rational.exact and their t-orbits walked here.  The
    oracle for the escalation record of pl.verify_displaced_supports."""
    a, b = exact(a), exact(b)
    out = []
    ta = a
    prev_b = b
    for _ in range(P):
        ta = pl.apply(t, ta)
        out.append(ta > prev_b)
        prev_b = pl.apply(t, prev_b)
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
        inner = image_by_definition(chain, tower, level_fam.value_at(u, q), level - 1)
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


def random_perm(rng: random.Random, n: int = 5) -> permmod.FinPerm:
    points = list(range(1, n + 1))
    images = points[:]
    rng.shuffle(images)
    return permmod.perm_from_mapping(dict(zip(points, images)))


def random_iet(rng: random.Random, max_pieces: int = 5, denom: int = 12) -> ietmod.IetMap:
    """A random interval exchange: random rational partition of [0, N),
    intervals rearranged by a random permutation."""
    k = rng.randint(1, max_pieces)
    cuts = sorted(rng.sample(range(1, denom * (k + 2)), k))
    lengths = [Fraction(c, denom) for c in
               [cuts[0]] + [b - a for a, b in zip(cuts, cuts[1:])]]
    order = list(range(k))
    rng.shuffle(order)
    starts = {}
    cursor = Fraction(0)
    for idx in order:
        starts[idx] = cursor
        cursor += lengths[idx]
    bps = [Fraction(0)]
    ts = []
    pos = Fraction(0)
    for idx in range(k):
        bps.append(bps[-1] + lengths[idx])
        ts.append(starts[idx] - pos)
        pos += lengths[idx]
    return ietmod.make_iet(bps, ts)


CLOSURE_LABELS = ("perm", "sl2", "iet")  # the closure battery's H, in its order


def closure_engine_inputs() -> dict:
    """label -> (H, witness) of each engine call the closure battery makes
    at its defaults: H embedded at coordinate 0 of the wreath product, and
    the top shift x at Finite(2)."""
    with mock.patch.object(suites, "verify_ccc", wraps=verify_ccc) as engine:
        suites.run_family("closure")
    return dict(zip(CLOSURE_LABELS, (call.args for call in engine.call_args_list), strict=True))
