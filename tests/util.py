"""Shared helpers for the test suite: seeded random elements per family."""

import random
from fractions import Fraction

from ccckit import iet as ietmod
from ccckit import perm as permmod
from ccckit.core import replace


def revalidates(x) -> bool:
    """Re-run the public validation on x: ``replace(x)`` constructs a fresh
    instance from x's fields through the public constructor, so it raises
    on any broken invariant."""
    return replace(x) == x


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
