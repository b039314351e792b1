import functools

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import freegroup as fg
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit import suites
from ccckit.core import Finite, GeneratorSet, Witness, verify_ccc

from util import abelianize

letters_st = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=20)


def test_reduction_oracle():
    assert fg.reduce_letters([1, 2, -2, 3]) == (1, 3)
    assert fg.reduce_letters([1, -1]) == ()
    assert fg.reduce_letters([1, 2, -2, -1, 3]) == (3,)


@given(letters_st)
def test_reduction_idempotent(letters):
    once = fg.reduce_letters(letters)
    assert fg.reduce_letters(once) == once


@given(letters_st)
def test_word_times_inverse_is_trivial(letters):
    u = fg.word(3, letters)
    assert fg.reduce_letters(u.letters + fg.word_inv(u).letters) == ()


@given(letters_st, letters_st, letters_st)
def test_word_mul_associative(a, b, c):
    """Words multiply as concatenation then free reduction."""
    u, v, w = (fg.word(3, x).letters for x in (a, b, c))
    reduce = fg.reduce_letters
    assert reduce(reduce(u + v) + w) == reduce(u + reduce(v + w))


def test_unreduced_word_rejected():
    with pytest.raises(ValueError):
        fg.FreeWord(2, (1, -1))
    with pytest.raises(ValueError):
        fg.word(2, (3,))


def test_render_word():
    assert fg.render_word(fg.word(3, (1, -2, 3, 3))) == "x1 X2 x3 x3"
    assert fg.render_word(fg.word(3, ())) == "1"


def test_nielsen_aut():
    phi = fg.nielsen_aut(2, 1, 2)
    assert fg.render_word(phi.images[0]) == "x1 x2"
    sq = fg.aut_compose(phi, phi)
    assert fg.render_word(sq.images[0]) == "x1 x2 x2"
    assert fg.aut_compose(phi, fg.aut_inverse(phi)) == fg.identity_aut(2)


@given(letters_st, letters_st)
def test_substitute_is_homomorphism(a, b):
    phi = fg.aut_compose(fg.nielsen_aut(3, 1, 2), fg.permutation_aut(3, {1: 2, 2: 3, 3: 1}))
    u, v = fg.word(3, a), fg.word(3, b)
    image = functools.partial(fg._substitute_images, phi.images)
    assert image(fg.word(3, a + b)) == fg.word(3, image(u).letters + image(v).letters)


def test_bad_inverse_pair_rejected():
    w1 = fg.word(2, (1, 2))
    w2 = fg.word(2, (2,))
    with pytest.raises(ValueError):
        fg.FreeAutomorphism(2, (w1, w2), (w1, w2))


def test_permutation_aut_validation():
    with pytest.raises(ValueError):
        fg.permutation_aut(3, {1: 2, 2: 2})


def test_inversion_is_involution():
    phi = fg.inversion_aut(2, 1)
    assert fg.aut_compose(phi, phi) == fg.identity_aut(2)


def test_extend_rank_fixes_new_generators():
    phi = fg.extend_rank(fg.nielsen_aut(2, 1, 2), 4)
    assert phi.rank == 4
    assert phi.images[2].letters == (3,)
    assert phi.images[3].letters == (4,)
    with pytest.raises(ValueError):
        fg.extend_rank(phi, 2)


def test_block_swap_aut():
    t = fg.block_swap_aut(2)
    fam = fg.FreeAutFamily(4)
    assert fam.is_identity(fam.mul(t, t))
    assert t.images[0].letters == (3,)
    assert t.images[2].letters == (1,)
    # conjugation moves first-block support to the second block
    phi = fg.extend_rank(fg.nielsen_aut(2, 1, 2), 4)
    moved = fam.mul(fam.mul(t, phi), fam.inv(t))
    assert moved.images[2].letters == (3, 4)
    assert moved.images[0].letters == (1,)


def test_aut_family_identity_built_once():
    fam = fg.FreeAutFamily(3)
    assert fam.identity() is fam.identity()
    assert fam.identity() == fg.identity_aut(3)
    assert fam.is_identity(fg.identity_aut(3))


def test_compose_with_one_letter_images_builds_no_word(monkeypatch):
    """Composing with a permutation or the identity reuses phi's image
    objects and reduces nothing."""
    phi = fg.aut_compose(fg.nielsen_aut(3, 1, 2), fg.inversion_aut(3, 2))
    cycle = fg.permutation_aut(3, {1: 2, 2: 3, 3: 1})
    ident = fg.identity_aut(3)
    calls = []
    reduce_letters = fg.reduce_letters
    monkeypatch.setattr(fg, "reduce_letters",
                        lambda letters: calls.append(letters) or reduce_letters(letters))
    for psi, forward, backward in ((cycle, (2, 3, 1), (3, 1, 2)), (ident, (1, 2, 3), (1, 2, 3))):
        # (phi o psi)(x_i) = phi(x_psi(i)); (psi o phi)^-1(x_i) = phi^-1(x_psi^-1(i))
        after = fg.aut_compose(phi, psi)
        assert all(w is phi.images[k - 1] for w, k in zip(after.images, forward))
        before = fg.aut_compose(psi, phi)
        assert all(w is phi.inverse_images[k - 1]
                   for w, k in zip(before.inverse_images, backward))
    assert calls == []


@pytest.mark.parametrize("build, args, match", [
    (fg.permutation_aut, (3, {4: 5, 5: 4}), "perm key"),       # once the identity
    (fg.permutation_aut, (3, {1: 4, 4: 1}), "perm value"),
    (fg.permutation_aut, (3, {1.0: 2, 2: 1}), "perm key"),
    (fg.permutation_aut, (3, {1: 2, 2: True}), "perm value"),
    (fg.block_swap_aut, (2.5,), "block size"),                 # once a TypeError
    (fg.block_swap_aut, (0,), "block size"),
    (fg.block_swap_aut, (True,), "block size"),
    (fg.nielsen_aut, (2, 1, 1.0), "j must be an int"),          # once "distinct indices"
    (fg.nielsen_aut, (2, 0, 1), "i must be an int"),
    (fg.nielsen_aut, (2, 1, 3), "j must be an int"),
    (fg.inversion_aut, (2, 0), "i must be an int"),             # once read images[-1]
    (fg.inversion_aut, (2, 3), "i must be an int"),
    (fg.inversion_aut, (2, True), "i must be an int"),
    (fg.nielsen_aut, (2.5, 1, 2), "int rank"),                 # once a TypeError from range
    (fg.inversion_aut, (2.5, 1), "int rank"),
    (fg.permutation_aut, (2.5, {}), "int rank"),
    (fg.identity_aut, (2.5,), "int rank"),
    (fg.FreeAutFamily, (2.5,), "int rank"),
    (fg.nielsen_aut, (True, 1, 2), "int rank"),                # once "j must be an int in 1..True"
    (fg.identity_aut, (-1,), "int rank"),
    (fg.inversion_aut, ("2", 1), "int rank"),
    (fg.permutation_aut, (3, [1, 2]), "mapping"),              # once an AttributeError
])
def test_constructors_reject_bad_indices(build, args, match):
    with pytest.raises(ValueError, match=match):
        build(*args)


@pytest.mark.parametrize("rank, letters", [
    (2.5, (1,)),      # non-integer rank
    (True, (1,)),     # bool rank
    (-1, ()),         # negative rank
    (2, (1.0,)),      # float letter
    (2, (True,)),     # bool letter
    (2, [1]),         # letters not a tuple
])
def test_word_rejects_non_int_data(rank, letters):
    with pytest.raises(ValueError, match="int|tuple"):
        fg.FreeWord(rank, letters)


def test_list_letters_are_not_reported_as_unreduced():
    with pytest.raises(ValueError, match="letters must be a tuple"):
        fg.FreeWord(2, [1])


def test_aut_rejects_images_of_another_rank():
    """Once acted as the identity while FreeAutFamily(1).eq called it unequal
    to the identity, a misclassified verdict."""
    x1 = fg.FreeWord(5, (1,))
    with pytest.raises(ValueError, match="rank 1 FreeWord"):
        fg.FreeAutomorphism(1, (x1,), (x1,))


def test_aut_rejects_image_letters_outside_its_rank():
    """Once raised IndexError from the substitution check."""
    x2 = fg.word(2, (2,))
    with pytest.raises(ValueError, match="rank 1 FreeWord"):
        fg.FreeAutomorphism(1, (x2,), (x2,))


def test_aut_rejects_list_images_and_non_words():
    x1, x2 = fg.word(2, (1,)), fg.word(2, (2,))
    with pytest.raises(ValueError, match="tuple"):
        fg.FreeAutomorphism(2, [x1, x2], (x1, x2))  # would build an unhashable element
    with pytest.raises(ValueError, match="FreeWord"):
        fg.FreeAutomorphism(2, (x1, (2,)), (x1, x2))
    with pytest.raises(ValueError, match="int rank"):
        fg.FreeAutomorphism(2.0, (x1, x2), (x1, x2))


def test_bad_aut_raises_before_any_substitution(monkeypatch):
    calls = []
    monkeypatch.setattr(fg, "_substitute_images", lambda *args: calls.append(args))
    with pytest.raises(ValueError):
        fg.FreeAutomorphism(1, (fg.FreeWord(5, (1,)),), (fg.FreeWord(5, (1,)),))
    assert calls == []


# ---------------------------------------------------------------------------
# Abelianization Aut(F_n) -> GL_n(Z) as an oracle for aut_compose


F4_LETTERS = ([fg.nielsen_aut(4, i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
              + [fg.inversion_aut(4, i) for i in range(1, 5)]
              + [fg.permutation_aut(4, {1: 2, 2: 1}),
                 fg.permutation_aut(4, {1: 2, 2: 3, 3: 4, 4: 1})])
f4_auts = st.lists(st.sampled_from(F4_LETTERS), min_size=1, max_size=6).map(
    lambda letters: functools.reduce(fg.aut_compose, letters))


def multiplicative(f, phi, psi) -> bool:
    return f(fg.aut_compose(phi, psi)) == mat.mat_mul(f(phi), f(psi))


@settings(max_examples=200, deadline=None)
@given(f4_auts, f4_auts)
def test_abelianization_is_multiplicative(phi, psi):
    assert multiplicative(abelianize, phi, psi)


def test_transposed_abelianization_is_not_multiplicative():
    """The negative control: transpose without inverse reverses products."""
    def transposed(phi):
        return mat.transpose(abelianize(phi))
    assert not all(multiplicative(transposed, phi, psi)
                   for phi in F4_LETTERS for psi in F4_LETTERS)


def test_block_swap_abelianizes_to_the_block_swap_matrix():
    assert abelianize(fg.block_swap_aut(2)) == mat.perm_to_matrix(permmod.block_swap(2), 4)
    assert abelianize(fg.block_swap_aut(2)).entries == (
        (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_the_aut_free_battery_abelianizes_to_a_passing_gl_run(k):
    stable = suites.STABLE["aut-free"]
    ambient, t = stable.level(k, None)
    H = tuple(abelianize(stable.embed(g, ambient)) for g in stable.generators(k, None))
    report = verify_ccc(GeneratorSet(mat.MatrixFamily(2 * k), H),
                        Witness(abelianize(t), Finite(2)))
    assert report.passed, report.counterexample
