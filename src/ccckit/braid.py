"""Braid words with exact equality via Dynnikov coordinates.

A braid on n strands is a word in the Artin generators sigma_1..sigma_(n-1),
stored as signed indices.  Equality is decided by the action of the braid
group on the Dynnikov coordinates of an integral lamination (Dynnikov, Russ.
Math. Surveys 57, 2002; Dehornoy-Dynnikov-Rolfsen-Wiest, *Ordering Braids*,
ch. XII): each letter updates at most two coordinate pairs in a few
integer operations, the bit length of the coordinates grows at most
linearly with word length, and only the trivial braid fixes the starting
coordinates, so equality is exact at any length.  ``_dynnikov`` writes
each of the four update rules (sigma_1, sigma_1^-1, sigma_i, sigma_i^-1)
as one straight-line branch; tests/test_braid.py keeps the rules as
published, with max and min, as its oracle.  The induced automorphism of
a free group (``artin_action``) is kept as a slow, independent oracle; its
images grow exponentially with word length.  A word's support is the
strands its letters cross, read off the word (``BraidFamily.support``).
"""

from __future__ import annotations

from functools import lru_cache

from . import freegroup as fg
from . import perm
from .core import FamilyMismatchError, GroupFamily, Record, is_int, runs, trusted


class BraidWord(Record):
    def __init__(self, strands: int, letters: tuple[int, ...]):
        self.__dict__.update(strands=strands, letters=letters)
        self.__post_init__()

    def __post_init__(self):
        if not (is_int(self.strands) and self.strands >= 1):
            raise ValueError(f"need an int number of strands >= 1, got {self.strands!r}")
        if not isinstance(self.letters, tuple):
            raise ValueError(f"letters must be a tuple, got {self.letters!r}")
        for x in self.letters:
            if not is_int(x):
                raise ValueError(f"generator index must be an int, got {x!r}")
            if x == 0 or abs(x) > self.strands - 1:
                raise ValueError(f"generator index {x} out of range for {self.strands} strands")

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters) if self.letters else "e"


def braid(strands: int, letters) -> BraidWord:
    return BraidWord(strands, tuple(letters))


def shift(w: BraidWord, k: int) -> BraidWord:
    """The word with each letter sigma_i moved to sigma_(i+k), on the same
    strands; ValueError when a letter leaves them."""
    return braid(w.strands, (x + k if x > 0 else x - k for x in w.letters))


def stabilize(w: BraidWord, strands: int) -> BraidWord:
    """Add strands on the right; the word is unchanged."""
    if not (is_int(strands) and strands >= w.strands):
        raise ValueError(f"need an int number of strands >= {w.strands}, got {strands!r}")
    return trusted(BraidWord, strands, w.letters)


# The slow oracle: the faithful Artin action on the free group of rank n.
# Its images grow exponentially with word length; tests compare
# braids_equal against it on short words.

@lru_cache(maxsize=None)
def _generator_aut(strands: int, i: int) -> fg.FreeAutomorphism:
    # sigma_i: x_i -> x_i x_(i+1) x_i^-1, x_(i+1) -> x_i
    rank = strands
    images = [fg.word(rank, (k,)) for k in range(1, rank + 1)]
    inverse_images = list(images)
    images[i - 1] = fg.word(rank, (i, i + 1, -i))
    images[i] = fg.word(rank, (i,))
    inverse_images[i - 1] = fg.word(rank, (i + 1,))
    inverse_images[i] = fg.word(rank, (-(i + 1), i, i + 1))
    return fg.FreeAutomorphism(rank, tuple(images), tuple(inverse_images))


@lru_cache(maxsize=None)
def _identity_aut(strands: int) -> fg.FreeAutomorphism:
    return fg.identity_aut(strands)


def artin_action(w: BraidWord) -> fg.FreeAutomorphism:
    """The induced automorphism of the free group of rank = strand count
    (the equality oracle; not used by braids_equal)."""
    result = _identity_aut(w.strands)
    for x in w.letters:
        g = _generator_aut(w.strands, abs(x))
        if x < 0:
            g = fg.aut_inverse(g)
        result = fg.aut_compose(result, g)
    return result


def _dynnikov(strands: int, letters) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Dynnikov coordinates (a; b) of the image of the standard
    lamination under a validated letter sequence, with the n strands taken
    inside B_(n+1).

    With m = n + 1 punctures there are m - 2 = n - 1 pairs (a_k, b_k),
    starting from (0, ..., 0; -1, ..., -1).  The extra puncture keeps the
    full twist, which generates the center of B_n, from fixing the start.
    Two words are equal in B_n iff their coordinates agree.

    Each letter is straight-line integer code, one branch per rule of
    Dehornoy-Dynnikov-Rolfsen-Wiest, ch. XII, and Hall-Yurttas, Topology
    Appl. 156 (2009): letter 1 (sigma_1) and letter -1 (sigma_1^-1) act on
    pair 1; letter i > 1 (sigma_i) and letter -i (sigma_i^-1) act on pairs
    (p, q) = i - 1 and (P, Q) = i.  q+ = max(q, 0) and q- = min(q, 0) come
    from one sign test of q, and every other max(v, 0) or min(v, 0) of the
    rules is written ``v if v > 0`` or ``v if v < 0``.  The rules as
    published, with max and min, are the oracle of this function in
    tests/test_braid.py.
    """
    a = [0] * (strands - 1)
    b = [-1] * (strands - 1)
    for x in letters:
        if x == 1 or x == -1:
            p, q = a[0], b[0]
            qp = q if q > 0 else 0
            if x > 0:  # sigma_1: b' = q+ - p, a' = q - max(b', 0)
                t = qp - p
                a[0] = q - t if t > 0 else q
            else:  # sigma_1^-1: b' = p + q+, a' = -q + max(b', 0)
                t = p + qp
                a[0] = t - q if t > 0 else -q
            b[0] = t
            continue
        j = (x if x > 0 else -x) - 2
        k = j + 1
        p, q = a[j], b[j]
        P, Q = a[k], b[k]
        if q > 0:
            qp, qm = q, 0
        else:
            qp, qm = 0, q
        if Q > 0:
            Qp, Qm = Q, 0
        else:
            Qp, Qm = 0, Q
        if x > 0:  # sigma_i, with c = p - P + Q+ - q-
            c = p - P + Qp - qm
            t = Qp - c  # a' = p + q+ + max(Q+ - c, 0)
            a[j] = p + qp + t if t > 0 else p + qp
            t = qm + c  # A' = P + Q- + min(q- + c, 0)
            a[k] = P + Qm + t if t < 0 else P + Qm
            if c > 0:  # b' = Q - max(c, 0), B' = q + max(c, 0)
                b[j], b[k] = Q - c, q + c
            else:
                b[j], b[k] = Q, q
        else:  # sigma_i^-1, with d = p - P - Q+ + q-
            d = p - P - Qp + qm
            t = Qp + d  # a' = p - q+ - max(Q+ + d, 0)
            a[j] = p - qp - t if t > 0 else p - qp
            t = qm - d  # A' = P - Q- - min(q- - d, 0)
            a[k] = P - Qm - t if t < 0 else P - Qm
            if d < 0:  # b' = Q + min(d, 0), B' = q - min(d, 0)
                b[j], b[k] = Q + d, q - d
            else:
                b[j], b[k] = Q, q
    return tuple(a), tuple(b)


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Exact equality in the braid group, by Dynnikov coordinates: a few
    integer operations per letter.  The word on fewer strands is read on the
    larger strand count, as stabilization would."""
    strands = max(u.strands, v.strands)
    return _dynnikov(strands, u.letters) == _dynnikov(strands, v.letters)


def underlying_permutation(w: BraidWord) -> perm.FinPerm:
    """Image under the projection to the symmetric group, sigma_i -> (i, i+1)."""
    result = perm.IDENTITY
    for x in w.letters:
        i = abs(x)
        result = perm.compose(result, trusted(perm.FinPerm, ((i, i + 1), (i + 1, i))))
    return result


def block_pass_word(n: int) -> BraidWord:
    """A braid in B_2n taking strands 1..n, in order, over strands n+1..2n.

    Built row by row: strand n passes over n+1..2n, then strand n-1, and so
    on.  Its underlying permutation is the block swap (1, n+1)...(n, 2n),
    conjugation by it carries sigma_j to sigma_(j+n) for j < n, and its
    square commutes with both blocks, every sigma_j with j != n.  So p = -1
    shifts by n as well: t^-1 sigma_j t = t (t^-2 sigma_j t^2) t^-1 =
    sigma_(j+n).  The braid battery claims both (suites.Stable.shift).
    """
    if not (is_int(n) and n >= 1):
        raise ValueError(f"block size must be an int >= 1, got {n!r}")
    letters: list[int] = []
    for row in range(n, 0, -1):
        letters.extend(range(row, row + n))
    return braid(2 * n, letters)


class BraidFamily(GroupFamily):
    """B_n as words in Artin generators, equality via Dynnikov coordinates."""

    def __init__(self, strands: int):
        self.strands = strands
        self.name = f"braid-{strands}"
        self._identity = braid(strands, ())

    def check_element(self, a):
        if not isinstance(a, BraidWord):
            raise FamilyMismatchError(f"not a BraidWord: {a!r}")
        if a.strands != self.strands:
            raise FamilyMismatchError(
                f"{a.strands}-strand word in {self.strands}-strand family")

    def identity(self):
        return self._identity

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return trusted(BraidWord, self.strands, a.letters + b.letters)

    def inv(self, a):
        self.check_element(a)
        return trusted(BraidWord, self.strands, tuple(-x for x in reversed(a.letters)))

    def eq(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return braids_equal(a, b)

    def render(self, a):
        self.check_element(a)
        return str(a)

    def support(self, a):
        """The strands a's letters act on, sigma_i on strands i and i + 1,
        each strand k as [k, k + 1) with den 1.  Words with disjoint
        supports use letters i, j with |i - j| >= 2, which commute.  Sound
        for any word, not tight: a word equal to e may have a support."""
        self.check_element(a)
        return 1, runs(sorted({k for x in a.letters for k in (abs(x), abs(x) + 1)}))
