"""Braid words with exact equality via the faithful action on a free group.

A braid on n strands is a word in the Artin generators sigma_1..sigma_(n-1),
stored as signed indices.  Equality is decided by comparing the induced free
group automorphisms, which is sound and complete; the trade-off is word
blowup, so equality inputs are capped at MAX_EQUALITY_LETTERS letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import freegroup as fg
from . import perm
from .core import FamilyMismatchError, GroupFamily, Witness, Finite, trusted

MAX_EQUALITY_LETTERS = 64


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("need at least one strand")
        for x in self.letters:
            if x == 0 or abs(x) > self.strands - 1:
                raise ValueError(f"generator index {x} out of range for {self.strands} strands")

    def __str__(self) -> str:
        return " ".join(str(x) for x in self.letters) if self.letters else "e"


def braid(strands: int, letters) -> BraidWord:
    return BraidWord(strands, tuple(letters))


def parse_braid(strands: int, text: str) -> BraidWord:
    text = text.strip()
    if text in ("", "e"):
        return braid(strands, ())
    return braid(strands, [int(tok) for tok in text.split()])


def stabilize(w: BraidWord, strands: int) -> BraidWord:
    """Add strands on the right; the word is unchanged."""
    if strands < w.strands:
        raise ValueError("cannot remove strands")
    return BraidWord(strands, w.letters)


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
    """The induced automorphism of the free group of rank = strand count."""
    result = _identity_aut(w.strands)
    for x in w.letters:
        g = _generator_aut(w.strands, abs(x))
        if x < 0:
            g = fg.aut_inverse(g)
        result = fg.aut_compose(result, g)
    return result


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """Exact equality in the braid group (sound and complete by faithfulness
    of the Artin action).  Pads the shorter word by stabilization."""
    strands = max(u.strands, v.strands)
    u, v = stabilize(u, strands), stabilize(v, strands)
    for w in (u, v):
        if len(w.letters) > MAX_EQUALITY_LETTERS:
            raise ValueError(
                f"equality input has {len(w.letters)} letters, cap is {MAX_EQUALITY_LETTERS}")
    return artin_action(u).images == artin_action(v).images


def underlying_permutation(w: BraidWord) -> perm.FinPerm:
    """Image under the projection to the symmetric group, sigma_i -> (i, i+1)."""
    result = perm.IDENTITY
    for x in w.letters:
        i = abs(x)
        result = perm.compose(result, perm.perm_from_cycles([[i, i + 1]]))
    return result


def block_pass_word(n: int) -> BraidWord:
    """A braid in B_2n taking strands 1..n, in order, over strands n+1..2n.

    Built row by row: strand n passes over n+1..2n, then strand n-1, and so
    on.  Its underlying permutation is the block swap (1, n+1)...(n, 2n),
    conjugation by it carries sigma_j to sigma_(j+n) for j < n, and its
    square commutes with sigma_1..sigma_(n-1).
    """
    if n < 1:
        raise ValueError(f"block size must be >= 1, got {n}")
    letters: list[int] = []
    for row in range(n, 0, -1):
        letters.extend(range(row, row + n))
    return braid(2 * n, letters)


def block_pass_witness(n: int) -> Witness:
    return Witness(block_pass_word(n), Finite(2))


class BraidFamily(GroupFamily):
    """B_n as words in Artin generators, equality via the Artin action."""

    def __init__(self, strands: int):
        self.strands = strands
        self.name = f"braid-{strands}"

    def check_element(self, a):
        if not isinstance(a, BraidWord):
            raise FamilyMismatchError(f"not a BraidWord: {a!r}")
        if a.strands != self.strands:
            raise FamilyMismatchError(
                f"{a.strands}-strand word in {self.strands}-strand family")

    def identity(self):
        return braid(self.strands, ())

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
        return str(a)
