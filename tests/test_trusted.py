"""Oracle properties for results built without re-validation.

Group operations, and builders once their parameters check out, build
their results with ``core.trusted``, which skips ``__post_init__``.  Each
property here re-runs the public validation on such results:
``core.replace(x)`` constructs a fresh instance from x's fields through
the public constructor, so it raises on any broken invariant, and it must
equal x.  The results of every registered family's operations are checked
by the law suite (test_laws.py); here are the builders, free words,
inverses of elementary products and the kernels' merging cases.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as m
from ccckit import perm as permmod
from ccckit import plhomeo as pl

from util import revalidates


# ---------------------------------------------------------------------------
# Matrices over Z and Z/m


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.sampled_from([None, 5, 12]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
                max_size=8))
def test_elementary_products_invert_to_valid_matrices(n, modulus, steps):
    a = m.identity_matrix(n, modulus)
    for i, j, r in steps:
        if i % n != j % n:
            a = m.mat_mul(a, m.elementary(n, i % n + 1, j % n + 1, r, modulus))
    inverse = m.mat_inv(a)
    assert revalidates(a) and revalidates(inverse)
    assert m.mat_mul(a, inverse) == m.identity_matrix(n, modulus)


# ---------------------------------------------------------------------------
# Free words


letters_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20)


@given(letters_st, letters_st)
def test_word_mul_and_inv_revalidate(a, b):
    """Words are multiplied only inside substitution: under x1 -> u,
    x2 -> v, x3 -> u, the words x1 x2, x1 X3 and x1 x2 X1 give uv, u u^-1
    and u v u^-1."""
    u, v = fg.word(3, a), fg.word(3, b)
    assert revalidates(fg.word_inv(u))
    for letters in ((1, 2), (1, -3), (1, 2, -1)):
        assert revalidates(fg._substitute_images((u, v, u), fg.word(3, letters)))


# ---------------------------------------------------------------------------
# Interval exchanges and PL maps: merging in compose


def test_iet_compose_merges_equal_translations():
    # f o g translates [0, 1) and [1, 2) both by +1: the rotation of [0, 3)
    f = ietmod.make_iet([0, 1, 2, 3], [2, 0, -2])
    g = ietmod.make_iet([0, 1, 2], [1, -1])
    h = ietmod.compose(f, g)
    assert revalidates(h)
    assert h == ietmod.rotation(3, 1) and h.breakpoints == (0, 2, 3)


def test_pl_compose_drops_collinear_vertices():
    f = pl.bump(Fraction(1, 4), Fraction(1, 2))
    h = pl.compose(f, pl.inverse(f))
    assert revalidates(h)
    assert h == pl.IDENTITY


# ---------------------------------------------------------------------------
# Builders: parameters checked, results built through trusted


moduli = st.sampled_from([None, 2, 5, 6, 12])


def perm_revalidates(x: permmod.FinPerm) -> bool:
    return permmod.perm_from_mapping(dict(x.mapping)) == x and revalidates(x)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_builders_revalidate(data):
    n = data.draw(st.integers(min_value=0, max_value=7))
    modulus = data.draw(moduli)
    assert revalidates(m.identity_matrix(n, modulus))
    images = data.draw(st.permutations(range(1, n + 1)))
    sigma = permmod.perm_from_mapping(dict(zip(range(1, n + 1), images)))
    assert revalidates(m.perm_to_matrix(sigma, n + data.draw(st.integers(0, 3)), modulus))
    kind = data.draw(st.sampled_from(["symplectic", "split-orthogonal"]))
    assert revalidates(m.form_matrix(m.FormTag(kind, 2 * (n // 2)), modulus))
    if n >= 2:
        i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
        r = data.draw(st.integers(min_value=-30, max_value=30))
        assert revalidates(m.elementary(n, i, j, r, modulus))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_free_group_builders_revalidate(data):
    rank = data.draw(st.integers(min_value=0, max_value=8))
    assert revalidates(fg.identity_aut(rank))
    images = data.draw(st.permutations(range(1, rank + 1)))
    moved = {k: v for k, v in zip(range(1, rank + 1), images)
             if k != v or data.draw(st.booleans())}  # fixed points named or left out
    phi = fg.permutation_aut(rank, moved)
    assert revalidates(phi)
    if rank >= 1:
        assert revalidates(fg.inversion_aut(rank, data.draw(st.integers(1, rank))))
    if rank >= 2:
        i, j = data.draw(st.permutations(range(1, rank + 1)))[:2]
        nielsen = fg.nielsen_aut(rank, i, j)
        assert revalidates(nielsen)
        phi = fg.aut_compose(fg.aut_compose(nielsen, phi), fg.inversion_aut(rank, j))
    assert revalidates(fg.extend_rank(phi, rank + data.draw(st.integers(0, 4))))
    assert revalidates(fg.block_swap_aut(data.draw(st.integers(min_value=1, max_value=8))))


def test_free_group_builders_share_each_ranks_one_letter_words():
    rank = 5
    gens = fg.identity_aut(rank).images
    assert all(a is b for a, b in zip(gens, fg.permutation_aut(rank, {}).images))
    assert all(a is b for a, b in zip(gens, fg.identity_aut(rank).inverse_images))
    nielsen = fg.nielsen_aut(rank, 2, 4)
    assert all(nielsen.images[k] is gens[k] for k in (0, 2, 3, 4))
    assert fg.block_swap_aut(2).images[0] is fg.identity_aut(4).images[2]
    extended = fg.extend_rank(fg.identity_aut(3), rank)
    assert all(extended.images[k] is gens[k] for k in (3, 4))


@given(st.integers(min_value=1, max_value=64))
def test_block_swap_revalidates(n):
    assert perm_revalidates(permmod.block_swap(n))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4), st.data())
def test_braid_builders_revalidate(strands, extra, data):
    letters = st.integers(min_value=1 - strands, max_value=strands - 1).filter(bool)
    w = braidmod.braid(strands, data.draw(st.lists(letters, max_size=12)) if strands > 1 else ())
    assert revalidates(braidmod.stabilize(w, strands + extra))
    assert perm_revalidates(braidmod.underlying_permutation(w))
