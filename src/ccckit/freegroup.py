"""Reduced words in a free group and composable automorphisms.

Words are stored as tuples of nonzero signed generator indices (+i for
x_i, -i for its inverse), always freely reduced.  Automorphisms carry
explicit inverses and are built only from an invertible repertoire, so no
general invertibility test is needed.

Automorphisms compose by substitution, whose cost follows the letters that
change: the image of a one-letter word is the image object itself (or its
inverse word), and longer images are freely reduced on one stack as their
letters stream in.  Images are immutable, so composites share them.

`FreeWord`, `word` and `FreeAutomorphism` validate what they are given.
The builders (`identity_aut`, `nielsen_aut`, `inversion_aut`,
`permutation_aut`, `extend_rank` and so `block_swap_aut`) check their
parameters, then build results that are valid by construction through
`core.trusted`.  They share one tuple of each rank's one-letter words
x_1..x_r, built once.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache

from .core import (FamilyMismatchError, GroupFamily, Record, Witness, Finite, is_int, runs,
                   trusted)


def reduce_letters(letters) -> tuple[int, ...]:
    """Free reduction; confluent, so any cancellation order gives this."""
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class FreeWord(Record):
    def __init__(self, rank: int, letters: tuple[int, ...]):
        self.__dict__.update(rank=rank, letters=letters)

    def __post_init__(self):
        rank, letters = self.rank, self.letters
        _check_rank(rank)
        if not isinstance(letters, tuple):
            raise ValueError(f"letters must be a tuple, got {letters!r}")
        for x in letters:
            if not is_int(x) or x == 0 or abs(x) > rank:
                raise ValueError(f"letter {x!r} is not an int in +-1..{rank}")
        if letters != reduce_letters(letters):
            raise ValueError(f"word not freely reduced: {letters}")

    def __str__(self) -> str:
        return render_word(self)


def word(rank: int, letters) -> FreeWord:
    return FreeWord(rank, reduce_letters(letters))


def word_inv(u: FreeWord) -> FreeWord:
    return trusted(FreeWord, u.rank, tuple(-x for x in reversed(u.letters)))


def render_word(u: FreeWord) -> str:
    """Lowercase for generators, uppercase for inverses: "x1 X2"."""
    if not u.letters:
        return "1"
    return " ".join((f"x{x}" if x > 0 else f"X{-x}") for x in u.letters)


# ---------------------------------------------------------------------------
# Automorphisms


class FreeAutomorphism(Record):
    def __init__(self, rank: int, images: tuple[FreeWord, ...],
                 inverse_images: tuple[FreeWord, ...]):
        self.__dict__.update(rank=rank, images=images, inverse_images=inverse_images)

    def __post_init__(self):
        rank = self.rank
        _check_rank(rank)
        for images in (self.images, self.inverse_images):
            if not isinstance(images, tuple) or len(images) != rank:
                raise ValueError(f"need a tuple of one image per generator, got {images!r}")
            for w in images:
                if not (isinstance(w, FreeWord) and w.rank == rank):
                    raise ValueError(f"image {w!r} is not a rank {rank} FreeWord")
        for comp in (
            [_substitute_images(self.images, w) for w in self.inverse_images],
            [_substitute_images(self.inverse_images, w) for w in self.images],
        ):
            for i, w in enumerate(comp, start=1):
                if w.letters != (i,):
                    raise ValueError(f"images and inverse images do not invert: x{i} -> {w}")


def _substitute_images(images: tuple[FreeWord, ...], w: FreeWord) -> FreeWord:
    """w with every x_k replaced by images[k-1] and every x_k^-1 by its inverse.

    A one-letter w returns images[k-1] itself, or its inverse word, with no
    new letters to reduce.  Longer words are freely reduced on one stack as
    the image letters stream in, so no unreduced list is built."""
    letters = w.letters
    if len(letters) == 1:
        x = letters[0]
        return images[x - 1] if x > 0 else word_inv(images[-x - 1])
    stack: list[int] = []
    for x in letters:
        if x > 0:
            for y in images[x - 1].letters:
                if stack and stack[-1] == -y:
                    stack.pop()
                else:
                    stack.append(y)
        else:
            for y in reversed(images[-x - 1].letters):
                if stack and stack[-1] == y:
                    stack.pop()
                else:
                    stack.append(-y)
    return trusted(FreeWord, w.rank, tuple(stack))


def aut_compose(phi: FreeAutomorphism, psi: FreeAutomorphism) -> FreeAutomorphism:
    """(phi o psi)(x_i) = phi(psi(x_i)), with inverse psi^-1 o phi^-1.

    Each one-letter image of psi (all of them for a permutation or the
    identity) picks phi's image object as it is, and longer images are
    reduced as their letters stream in, so the cost follows the letters
    that change."""
    if phi.rank != psi.rank:
        raise FamilyMismatchError(f"rank mismatch: {phi.rank} vs {psi.rank}")
    images = tuple(_substitute_images(phi.images, w) for w in psi.images)
    inverse_images = tuple(_substitute_images(psi.inverse_images, w) for w in phi.inverse_images)
    return trusted(FreeAutomorphism, phi.rank, images, inverse_images)


def aut_inverse(phi: FreeAutomorphism) -> FreeAutomorphism:
    return trusted(FreeAutomorphism, phi.rank, phi.inverse_images, phi.images)


def _check_rank(rank) -> None:
    if not (is_int(rank) and rank >= 0):
        raise ValueError(f"need an int rank >= 0, got {rank!r}")


@lru_cache(maxsize=None)
def _generators(rank: int) -> tuple[FreeWord, ...]:
    """The one-letter words x_1..x_rank, built once per rank and shared by
    the builders' results."""
    return tuple(trusted(FreeWord, rank, (i,)) for i in range(1, rank + 1))


def identity_aut(rank: int) -> FreeAutomorphism:
    _check_rank(rank)
    gens = _generators(rank)
    return trusted(FreeAutomorphism, rank, gens, gens)


def _check_index(name: str, value, rank: int) -> None:
    if not (is_int(value) and 1 <= value <= rank):
        raise ValueError(f"{name} must be an int in 1..{rank}, got {value!r}")


def nielsen_aut(rank: int, i: int, j: int) -> FreeAutomorphism:
    """x_i -> x_i x_j, other generators fixed (i != j)."""
    _check_rank(rank)
    _check_index("i", i, rank)
    _check_index("j", j, rank)
    if i == j:
        raise ValueError("Nielsen move needs distinct indices")
    images = list(_generators(rank))
    inverse_images = list(images)
    images[i - 1] = trusted(FreeWord, rank, (i, j))
    inverse_images[i - 1] = trusted(FreeWord, rank, (i, -j))
    return trusted(FreeAutomorphism, rank, tuple(images), tuple(inverse_images))


def inversion_aut(rank: int, i: int) -> FreeAutomorphism:
    """x_i -> x_i^-1, an involution."""
    _check_rank(rank)
    _check_index("i", i, rank)
    images = list(_generators(rank))
    images[i - 1] = trusted(FreeWord, rank, (-i,))
    images = tuple(images)
    return trusted(FreeAutomorphism, rank, images, images)


def permutation_aut(rank: int, perm: dict[int, int]) -> FreeAutomorphism:
    """x_i -> x_perm(i); perm given as a mapping, unmentioned indices fixed."""
    _check_rank(rank)
    if not isinstance(perm, Mapping):
        raise ValueError(f"perm must be a mapping of indices, got {perm!r}")
    for k, v in perm.items():
        _check_index("perm key", k, rank)
        _check_index("perm value", v, rank)
    full = {i: perm.get(i, i) for i in range(1, rank + 1)}
    if sorted(full.values()) != list(range(1, rank + 1)):
        raise ValueError(f"not a permutation of 1..{rank}: {perm}")
    inv = {v: k for k, v in full.items()}
    gens = _generators(rank)
    images = tuple(gens[full[i] - 1] for i in range(1, rank + 1))
    inverse_images = tuple(gens[inv[i] - 1] for i in range(1, rank + 1))
    return trusted(FreeAutomorphism, rank, images, inverse_images)


def extend_rank(phi: FreeAutomorphism, rank: int) -> FreeAutomorphism:
    """Extend by the identity on the new generators (stable extension)."""
    if not (is_int(rank) and rank >= phi.rank):
        raise ValueError(f"need an int rank >= {phi.rank}, got {rank!r}")
    lift = lambda w: trusted(FreeWord, rank, w.letters)
    new = _generators(rank)[phi.rank:]
    images = tuple(lift(w) for w in phi.images) + new
    inverse_images = tuple(lift(w) for w in phi.inverse_images) + new
    return trusted(FreeAutomorphism, rank, images, inverse_images)


def block_swap_aut(n: int) -> FreeAutomorphism:
    """The involution of F_2n with x_i <-> x_(i+n); conjugation by it moves
    anything supported on the first block to the second block."""
    if not (is_int(n) and n >= 1):
        raise ValueError(f"block size must be an int >= 1, got {n!r}")
    return permutation_aut(2 * n, {i: i + n for i in range(1, n + 1)}
                           | {i + n: i for i in range(1, n + 1)})


def aut_block_swap_witness(n: int) -> Witness:
    return Witness(block_swap_aut(n), Finite(2))


class FreeAutFamily(GroupFamily):
    """Aut(F_r) under composition."""

    def __init__(self, rank: int):
        self.rank = rank
        self.name = f"aut-free-{rank}"
        self._identity = identity_aut(rank)

    def check_element(self, a):
        if not isinstance(a, FreeAutomorphism):
            raise FamilyMismatchError(f"not a FreeAutomorphism: {a!r}")
        if a.rank != self.rank:
            raise FamilyMismatchError(f"rank {a.rank} element in rank {self.rank} family")

    def identity(self):
        return self._identity

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return aut_compose(a, b)

    def inv(self, a):
        self.check_element(a)
        return aut_inverse(a)

    def eq(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return a.images == b.images

    def support(self, a):
        """The moved letters and every letter in their images, letter x_i as
        [i, i + 1).  a fixes every other letter and maps the free factor on
        these letters onto itself."""
        self.check_element(a)
        letters = set()
        for i, w in enumerate(a.images, start=1):
            if w.letters != (i,):
                letters.add(i)
                letters.update(map(abs, w.letters))
        return 1, runs(sorted(letters))

    def render(self, a):
        self.check_element(a)
        return "; ".join(f"x{i} -> {render_word(w)}" for i, w in enumerate(a.images, start=1))
