import pytest

from ccckit import braid as b
from ccckit import freegroup as fg
from ccckit import perm as p
from ccckit.core import Finite, GeneratorSet, verify_ccc


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


def test_equality_cap():
    long = b.braid(2, (1,) * (b.MAX_EQUALITY_LETTERS + 1))
    with pytest.raises(ValueError):
        b.braids_equal(long, b.braid(2, ()))


def test_letter_range_validation():
    with pytest.raises(ValueError):
        b.braid(3, (3,))
    with pytest.raises(ValueError):
        b.braid(3, (0,))


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


def test_witness_battery():
    for n in (2, 3):
        fam = b.BraidFamily(2 * n)
        gens = tuple(b.braid(2 * n, (i,)) for i in range(1, n))
        w = b.block_pass_witness(n)
        assert isinstance(w.mode, Finite) and w.mode.n == 2
        report = verify_ccc(GeneratorSet(fam, gens), w)
        assert report.passed, report.counterexample


def test_parse_braid():
    assert b.parse_braid(3, "1 -2 1") == b.braid(3, (1, -2, 1))
    assert b.parse_braid(3, "e") == b.braid(3, ())


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
    assert b.artin_action(b.braid(4, ())) == fg.identity_aut(4)
    assert len(validated) == 1  # the oracle fg.identity_aut(4) itself
