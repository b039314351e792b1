import random

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import braid as b
from ccckit import freegroup as fg
from ccckit import perm as p
from ccckit.core import Finite, GeneratorSet, Witness, verify_ccc
from ccckit.suites import run_family


def test_braid_relation_small():
    lhs = b.braid(3, (1, 2, 1))
    rhs = b.braid(3, (2, 1, 2))
    assert b.braids_equal(lhs, rhs)


def test_all_relations_up_to_six_strands():
    for n in range(2, 7):
        for i in range(1, n - 1):
            assert b.braids_equal(b.braid(n, (i, i + 1, i)), b.braid(n, (i + 1, i, i + 1)))
        for i in range(1, n):
            for j in range(i + 2, n):
                assert b.braids_equal(b.braid(n, (i, j)), b.braid(n, (j, i)))


def test_inequalities():
    assert not b.braids_equal(b.braid(2, (1,)), b.braid(2, ()))
    assert not b.braids_equal(b.braid(2, (1,)), b.braid(2, (-1,)))
    assert not b.braids_equal(b.braid(3, (1,)), b.braid(3, (2,)))


def test_free_reduction_in_the_group():
    assert b.braids_equal(b.braid(3, (1, -1, 2)), b.braid(3, (2,)))


def test_stabilization_padding():
    assert b.braids_equal(b.braid(2, (1,)), b.braid(4, (1,)))


def _half_twist(n):
    """Garside's Delta = (sigma_1..sigma_(n-1)) (sigma_1..sigma_(n-2)) ... sigma_1."""
    return tuple(i for k in range(n - 1, 0, -1) for i in range(1, k + 1))


def _inverse(letters):
    return tuple(-x for x in reversed(letters))


def _relators(n):
    """sigma_i sigma_(i+1) sigma_i (sigma_(i+1) sigma_i sigma_(i+1))^-1, the
    far commutators [sigma_i, sigma_j] and sigma_i sigma_i^-1."""
    rels = [(i, i + 1, i, -(i + 1), -i, -(i + 1)) for i in range(1, n - 1)]
    rels += [(i, j, -i, -j) for i in range(1, n) for j in range(i + 2, n)]
    rels += [(i, -i) for i in range(1, n)]
    return rels


def _artin_equal(u, v):
    strands = max(u.strands, v.strands)
    return (b.artin_action(b.stabilize(u, strands)).images
            == b.artin_action(b.stabilize(v, strands)).images)


@st.composite
def _word_pairs(draw):
    """Two words on 2-6 strands and whether they are equal by construction:
    independent words, or a word and the same word with a conjugated
    relator w r w^-1 spliced in; at most ~12 letters before the splice."""
    n = draw(st.integers(2, 6))
    letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    u = tuple(draw(st.lists(letter, max_size=6)))
    if draw(st.booleans()):
        return n, u, tuple(draw(st.lists(letter, max_size=6))), False
    w = tuple(draw(st.lists(letter, max_size=3)))
    r = draw(st.sampled_from(_relators(n)))
    cut = draw(st.integers(0, len(u)))
    return n, u, u[:cut] + w + r + _inverse(w) + u[cut:], True


@settings(max_examples=300, deadline=None)
@given(_word_pairs())
def test_dynnikov_equality_matches_artin_oracle(pair):
    n, u, v, spliced = pair
    U, V = b.braid(n, u), b.braid(n, v)
    verdict = b.braids_equal(U, V)
    assert verdict == _artin_equal(U, V)
    assert verdict or not spliced


def test_full_twist_powers_are_nontrivial():
    for n in range(2, 7):
        for power in (2, 4):
            twist = b.braid(n, _half_twist(n) * power)
            assert not b.braids_equal(twist, b.braid(n, ())), (n, power)
            assert not _artin_equal(twist, b.braid(n, ()))


def test_full_twist_is_central_and_half_twist_conjugates():
    for n in range(2, 7):
        delta = _half_twist(n)
        for i in range(1, n):
            assert b.braids_equal(b.braid(n, delta * 2 + (i,)), b.braid(n, (i,) + delta * 2))
            # Delta sigma_i Delta^-1 = sigma_(n-i)
            assert b.braids_equal(b.braid(n, delta + (i,) + _inverse(delta)), b.braid(n, (n - i,)))


def test_long_words_are_decided():
    # Delta^16 on 6 strands is central: 241-letter words on both sides
    twist = _half_twist(6) * 16
    assert b.braids_equal(b.braid(6, twist + (1,)), b.braid(6, (1,) + twist))
    assert not b.braids_equal(b.braid(6, twist + (1,)), b.braid(6, twist))
    rng = random.Random(1)
    w = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(150))
    assert b.braids_equal(b.braid(5, w + _inverse(w)), b.braid(5, ()))
    assert not b.braids_equal(b.braid(2, (1,) * 201), b.braid(2, (1,) * 199))
    assert b.braids_equal(b.braid(2, (1,) * 250 + (-1,) * 250), b.braid(2, ()))


def test_dynnikov_start_and_identity():
    assert b._dynnikov(4, ()) == ((0, 0, 0), (-1, -1, -1))
    assert b._dynnikov(1, ()) == ((), ())
    for n in range(2, 6):
        for i in range(1, n):
            assert b._dynnikov(n, (i, -i)) == b._dynnikov(n, ())
            assert b._dynnikov(n, (-i, i)) == b._dynnikov(n, ())


def oracle_dynnikov(strands, letters):
    """The update rules of Dehornoy-Dynnikov-Rolfsen-Wiest, ch. XII, as
    published, with max and min: the former ``braid._dynnikov``."""
    a = [0] * (strands - 1)
    b = [-1] * (strands - 1)
    for x in letters:
        i = abs(x)
        if i == 1:
            p, q = a[0], b[0]
            if x > 0:
                a[0], b[0] = q - max(max(q, 0) - p, 0), max(q, 0) - p
            else:
                a[0], b[0] = -q + max(p + max(q, 0), 0), p + max(q, 0)
            continue
        p, q, P, Q = a[i - 2], b[i - 2], a[i - 1], b[i - 1]
        qp, qm, Qp, Qm = max(q, 0), min(q, 0), max(Q, 0), min(Q, 0)
        if x > 0:
            c = p - P + Qp - qm
            a[i - 2], b[i - 2] = p + qp + max(Qp - c, 0), Q - max(c, 0)
            a[i - 1], b[i - 1] = P + Qm + min(qm + c, 0), q + max(c, 0)
        else:
            d = p - P - Qp + qm
            a[i - 2], b[i - 2] = p - qp - max(Qp + d, 0), Q + min(d, 0)
            a[i - 1], b[i - 1] = P - Qm - min(qm - d, 0), q - min(d, 0)
    return tuple(a), tuple(b)


def _dynnikov_agrees(n, letters):
    coordinates = b._dynnikov(n, letters)
    assert coordinates == oracle_dynnikov(n, letters), (n, letters)
    return coordinates


@st.composite
def _strands_and_words(draw):
    """A strand count in 1..10 and a word of up to 250 letters on it."""
    n = draw(st.integers(1, 10))
    if n == 1:
        return n, ()
    length = draw(st.integers(0, 250))
    letter = st.sampled_from([s * i for i in range(1, n) for s in (1, -1)])
    return n, tuple(draw(st.lists(letter, min_size=length, max_size=length)))


@settings(max_examples=200, deadline=None)
@given(_strands_and_words())
def test_dynnikov_matches_the_published_rules(case):
    _dynnikov_agrees(*case)


def test_dynnikov_kernel_cases():
    assert _dynnikov_agrees(1, ()) == ((), ())
    # sigma_1^+-k on 2 and 3 strands
    for k in (1, 2, 250):
        assert _dynnikov_agrees(2, (1,) * k) == ((-1,), (k - 1,))
        assert _dynnikov_agrees(2, (-1,) * k) == ((1,), (k - 1,))
        assert _dynnikov_agrees(3, (1,) * k) == ((-1, 0), (k - 1, -1))
        assert _dynnikov_agrees(3, (-1,) * k) == ((1, 0), (k - 1, -1))
    # Delta^16 on 6 strands, 240 letters: central, so its coordinates grow
    # only linearly
    twist = _half_twist(6) * 16
    assert _dynnikov_agrees(6, twist) == ((-1, -2, -3, -4, -5), (0, 0, 0, 0, 75))
    # the pseudo-Anosov (sigma_1 sigma_2^-1)^k: coordinates of hundreds of bits
    for n in (3, 6):
        a, c = _dynnikov_agrees(n, (1, -2) * 250)
        assert max(abs(v) for v in a + c).bit_length() > 300
    # words that start with a negative letter
    rng = random.Random(3)
    for n in range(2, 8):
        for first in range(1, n):
            w = (-first,) + tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                  for _ in range(40))
            _dynnikov_agrees(n, w)
            assert _dynnikov_agrees(n, w + _inverse(w)) == b._dynnikov(n, ())
        _dynnikov_agrees(n, tuple(range(-1, -n, -1)) * 30)


def test_letter_range_validation():
    with pytest.raises(ValueError):
        b.braid(3, (3,))
    with pytest.raises(ValueError):
        b.braid(3, (0,))


@pytest.mark.parametrize("strands,letters", [
    (3, (1.5,)),     # a non-int letter
    (3, (True,)),    # a bool letter
    (2.0, (1,)),     # a float strand count
    (True, ()),      # a bool strand count
    (0, ()),
    (3, [1]),        # letters not a tuple
])
def test_braid_word_rejects_non_int_data(strands, letters):
    with pytest.raises(ValueError):
        b.BraidWord(strands, letters)


def test_underlying_permutation():
    w = b.braid(3, (1, 2))
    # sigma_1 then sigma_2, composed left-to-right as functions on positions
    assert b.underlying_permutation(w)(1) in (2, 3)
    sq = b.braid(3, (1, 1))
    assert b.underlying_permutation(sq) == p.IDENTITY


def test_block_pass_realizes_block_swap():
    for n in (1, 2, 3):
        t = b.block_pass_word(n)
        assert b.underlying_permutation(t) == p.block_swap(n)
        assert len(t.letters) == n * n


def test_block_pass_conjugation_shifts_generators():
    for n in (2, 3):
        fam = b.BraidFamily(2 * n)
        t = b.block_pass_word(n)
        for j in range(1, n):
            lhs = fam.mul(fam.mul(t, b.braid(2 * n, (j,))), fam.inv(t))
            assert b.braids_equal(lhs, b.braid(2 * n, (j + n,)))


def test_block_pass_square_commutes_with_first_block():
    for n in (2, 3):
        fam = b.BraidFamily(2 * n)
        t2 = fam.power(b.block_pass_word(n), 2)
        for j in range(1, n):
            s = b.braid(2 * n, (j,))
            c = fam.mul(fam.mul(s, t2), fam.mul(fam.inv(s), fam.inv(t2)))
            assert fam.is_identity(c)


def test_block_pass_square_commutes_with_both_blocks():
    # so t^-1 sigma_j t = t sigma_j t^-1 = sigma_(j+n), the braid battery's claim
    for n in (2, 3, 4):
        fam = b.BraidFamily(2 * n)
        t = b.block_pass_word(n)
        t2 = fam.mul(t, t)
        for j in range(1, 2 * n):
            s = b.braid(2 * n, (j,))
            assert fam.eq(fam.mul(s, t2), fam.mul(t2, s)) == (j != n)
        for j in range(1, n):
            s = b.braid(2 * n, (j,))
            assert fam.eq(fam.mul(fam.mul(fam.inv(t), s), t), b.shift(s, n))


def test_shift_moves_every_letter():
    assert b.shift(b.braid(6, (1, -2, 2)), 3) == b.braid(6, (4, -5, 5))
    assert b.shift(b.braid(6, ()), 3) == b.braid(6, ())
    with pytest.raises(ValueError, match="out of range"):
        b.shift(b.braid(6, (3,)), 3)


def test_witness_battery():
    for n in (2, 3):
        fam = b.BraidFamily(2 * n)
        gens = tuple(b.braid(2 * n, (i,)) for i in range(1, n))
        w = Witness(b.block_pass_word(n), Finite(2))
        assert isinstance(w.mode, Finite) and w.mode.n == 2
        report = verify_ccc(GeneratorSet(fam, gens), w)
        assert report.passed, report.counterexample


def test_warm_artin_action_validates_no_automorphism(monkeypatch):
    word = b.braid(4, (1, -2, 3, 1))
    expected = b.artin_action(word)  # builds the identity and generator automorphisms
    validated = []
    validate = fg.FreeAutomorphism.__post_init__

    def counting(self):
        validated.append(self)
        validate(self)

    monkeypatch.setattr(fg.FreeAutomorphism, "__post_init__", counting)
    assert b.artin_action(b.braid(4, (1, -2, 3, 1))) == expected
    identity = fg.identity_aut(4)  # a builder: checks its rank, validates nothing
    assert b.artin_action(b.braid(4, ())) == identity
    assert validated == []
    # the public constructor still validates, and is counted
    assert fg.FreeAutomorphism(4, identity.images, identity.inverse_images) == identity
    assert len(validated) == 1


def test_passing_commutation_records_show_the_identity():
    # the engine decides [a, b] = e as ab = ba and writes "e" on a pass,
    # where the unreduced commutator word would render differently
    for size in range(2, 9):
        checks = run_family("braid", size=size)["checks"]
        commutation = [c for c in checks if c["name"].startswith("[")]
        assert len(commutation) == 2 * (size - 1) ** 2 + size - 1
        assert all(c["status"] == "pass" and c["lhs"] == "e" for c in commutation)
