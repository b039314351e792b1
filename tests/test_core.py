import operator
import re
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import example, find, given, settings, strategies as st

from ccckit.core import (Finite, GeneratorSet, GroupFamily, VerificationReport, Witness,
                         ZMode, _neighbour_conjugates, commutator, commutes,
                         conjugate, record_commutation, verify_ccc, verify_czc)
import ccckit
from ccckit import braid as braidmod
from ccckit import cli
from ccckit import core
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit import wreath as wreathmod
from ccckit.perm import PERM, block_swap, perm_from_cycles, render_cycles

from util import bounded_products, products_of, supports_overlap, wrong_braid_shift

def _perm_of(images):
    from ccckit.perm import perm_from_mapping
    return perm_from_mapping(dict(zip(range(1, len(images) + 1), images)))


perm_st = st.permutations(list(range(1, 6))).map(_perm_of)


@given(perm_st, perm_st, perm_st)
def test_group_laws(a, b, c):
    assert PERM.eq(PERM.mul(PERM.mul(a, b), c), PERM.mul(a, PERM.mul(b, c)))
    assert PERM.eq(PERM.mul(a, PERM.identity()), a)
    assert PERM.is_identity(PERM.mul(a, PERM.inv(a)))


def test_commutator_convention():
    # [a, b] = a b a^-1 b^-1 with right-to-left composition
    a = perm_from_cycles([[1, 2]])
    b = perm_from_cycles([[2, 3]])
    assert render_cycles(commutator(PERM, a, b)) == "(1 3 2)"


def test_conjugate_convention():
    # ^t h = t h t^-1 relabels the cycle through t
    t = perm_from_cycles([[1, 2, 3]])
    h = perm_from_cycles([[1, 2]])
    assert render_cycles(conjugate(PERM, t, h)) == "(2 3)"


def test_power():
    c = perm_from_cycles([[1, 2, 3]])
    assert PERM.is_identity(PERM.power(c, 3))
    assert PERM.eq(PERM.power(c, -1), PERM.inv(c))
    assert PERM.eq(PERM.power(c, 7), c)
    assert PERM.is_identity(PERM.power(c, 0))


@pytest.mark.parametrize("k", [2.5, 2.0, True, False, "2", None])
def test_power_rejects_non_int_exponents(k):
    with pytest.raises(ValueError, match="exponent must be an int"):
        PERM.power(perm_from_cycles([[1, 2, 3]]), k)


@pytest.mark.parametrize("build", [permmod.block_swap, braidmod.block_pass_word])
@pytest.mark.parametrize("n", [True, 2.0, 2.5, "2", 0])
def test_witness_builders_reject_non_int_block_sizes(build, n):
    with pytest.raises(ValueError, match="block size must be an int"):
        build(n)


def test_every_exported_name_resolves():
    assert len(set(ccckit.__all__)) == len(ccckit.__all__)
    for name in ccckit.__all__:
        assert hasattr(ccckit, name), name
    namespace = {}
    exec("from ccckit import *", namespace)
    assert set(ccckit.__all__) <= namespace.keys()


def binary_power_products(k):
    """Products binary powering takes for t^k, k >= 0: from the lowest set
    bit, with no square past the highest, bitlen(k) + popcount(k) - 2 for
    k >= 1."""
    return k.bit_length() + bin(k).count("1") - 2 if k else 0


def test_power_product_count():
    a = perm_from_cycles([[1, 2, 3, 4, 5, 6, 7]])
    expected = PERM.identity()
    for k in range(0, 300):
        products = binary_power_products(k)
        counted = CountingFamily(PERM)
        assert PERM.eq(counted.power(a, k), expected)
        assert counted.counts == Counter(mul=products)
        counted = CountingFamily(PERM)
        assert PERM.eq(counted.power(a, -k), PERM.inv(expected))
        assert counted.counts == Counter(mul=products, inv=1 if k else 0)
        expected = PERM.mul(expected, a)


def test_default_product_is_the_left_fold():
    gens = [perm_from_cycles([[1, 2, 3]]), perm_from_cycles([[1, 2]]), perm_from_cycles([[3, 4]])]
    for k in range(5):
        word = [gens[i % 3] for i in range(k)]
        expected = PERM.identity()
        for g in word:
            expected = PERM.mul(expected, g)
        counted = CountingFamily(PERM)
        assert counted.product(iter(word)) == expected
        assert counted.counts == Counter(mul=max(k - 1, 0))


_MAT_Z3 = mat.MatrixFamily(3, 3)
_BRAID_4 = braidmod.BraidFamily(4)

# family -> (group family, strategy for its elements)
NEIGHBOUR_CASES = {
    "perm": (PERM, perm_st),
    "pl": (pl.PL, products_of(pl.PL, [pl.bump(16, a, b)
                                      for a, b in ((1, 5), (2, 9), (4, 12), (7, 15), (3, 4))]
                              + [pl.inverse(pl.bump(16, 3, 13))])),
    "matrix-Z/3": (_MAT_Z3, products_of(_MAT_Z3, [mat.elementary(3, i, j, r, 3)
                                                 for i in range(1, 4) for j in range(1, 4)
                                                 for r in (1, 2) if i != j])),
    # rotations of [0, 3/2) by 1/2 and of [0, 2) by 1/3, and blocks 3/4 and 1
    "iet": (ietmod.IET, products_of(ietmod.IET, [ietmod.rotation(2, 3, 1),
                                                ietmod.rotation(3, 6, 1),
                                                ietmod.block_exchange(4, 3),
                                                ietmod.block_exchange(1, 1)])),
    "braid": (_BRAID_4, products_of(_BRAID_4, [braidmod.braid(4, (x,))
                                               for x in (1, 2, 3, -1, -2, -3)])),
}


@pytest.mark.parametrize("name", sorted(NEIGHBOUR_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_neighbour_conjugates_match_conjugation_by_the_power(name, data):
    """^(s^q) h built from its neighbour ^(s^(q-1)) h is s^q h s^-q for
    q = 1..8, with s = t and with s = t^-1, so for 1 <= |p| <= 8 it is
    t^p h t^-p: equal normal forms, and for braids equal in B_4."""
    fam, elements = NEIGHBOUR_CASES[name]
    t = data.draw(elements, label="t")
    hs = data.draw(st.lists(elements, min_size=1, max_size=2), label="hs")
    equal = braidmod.braids_equal if name == "braid" else operator.eq
    t_inv = fam.inv(t)
    for sign, s, s_inv in ((1, t, t_inv), (-1, t_inv, t)):
        sweep = list(_neighbour_conjugates(fam, hs, s, s_inv, 8))
        assert len(sweep) == 8
        for q, conjs in enumerate(sweep, 1):
            for h, c in zip(hs, conjs, strict=True):
                assert equal(c, conjugate(fam, fam.power(t, sign * q), h))


def test_verify_ccc_passes_on_disjoint_blocks():
    H = GeneratorSet(PERM, (perm_from_cycles([[1, 2]]), perm_from_cycles([[1, 2, 3]])))
    report = verify_ccc(H, Witness(block_swap(3), Finite(2)))
    assert report.passed
    assert not report.bounded
    assert report.counterexample is None


def test_verify_ccc_detects_failure():
    H = GeneratorSet(PERM, (perm_from_cycles([[1, 2]]),))
    bad = Witness(perm_from_cycles([[2, 3]]), Finite(2))
    report = verify_ccc(H, bad)
    assert not report.passed
    assert report.counterexample is not None


def test_verify_ccc_rejects_zmode():
    H = GeneratorSet(PERM, ())
    with pytest.raises(ValueError, match=r"verify_ccc requires a Finite\(n\) witness"):
        verify_ccc(H, Witness(PERM.identity(), ZMode(4)))


def test_verify_ccc_rejects_empty_generator_set():
    # an empty battery is not a pass
    with pytest.raises(ValueError, match="empty generator set"):
        verify_ccc(GeneratorSet(PERM, ()), Witness(block_swap(2), Finite(2)))


def test_verify_czc_rejects_empty_generator_set():
    t = pl.displacement_witness(4, 1, 2, bound=4)
    with pytest.raises(ValueError, match="empty generator set"):
        verify_czc(GeneratorSet(pl.PL, ()), t)
    with pytest.raises(ValueError, match="requires a ZMode witness"):  # the mode is checked first
        verify_czc(GeneratorSet(pl.PL, ()), Witness(t.t, Finite(2)))


def test_verify_czc_is_labeled_bounded():
    t = pl.displacement_witness(4, 1, 2, bound=4)
    H = GeneratorSet(pl.PL, (pl.bump(4, 1, 2),))
    report = verify_czc(H, t)
    assert report.passed
    assert report.bounded
    assert all("bounded" in c["detail"] for c in report.checks)


def test_mode_validation():
    with pytest.raises(ValueError, match="finite witness order must be an int >= 2, got 1"):
        Finite(1)
    with pytest.raises(ValueError, match="Z-mode bound must be an int >= 1, got 0"):
        ZMode(0)


@pytest.mark.parametrize("mode, value", [(Finite, 2.5), (Finite, 2.0), (ZMode, 1.5),
                                         (ZMode, True)])
def test_mode_rejects_non_int_orders(mode, value):
    with pytest.raises(ValueError, match=f"must be an int >= ., got {value!r}$"):
        mode(value)


_BUMP_TOUCHING_0 = pl.make_pl(8, [0, 2, 4, 8], [0, 3, 4, 8])  # supported on [0, 1/2]


@pytest.mark.parametrize("build, message", [
    (lambda: ietmod.IetMap(1.5, (0, 1), (0,)), "need a positive int denominator"),
    (lambda: ietmod.make_iet(1.5, [0, 1], [0]), "need a positive int denominator"),
    (lambda: ietmod.IetMap(1, (1, 2), (0,)), "breakpoints must start at 0$"),
    (lambda: ietmod.make_iet(1, [1, 2], [0]), "breakpoints must start at 0$"),
    (lambda: pl.PlMap(4, (0, 2, 1, 4), (0, 1, 2, 4)),
     r"vertices not strictly increasing near \(1/2,1/4\)$"),
    (lambda: pl.make_pl(4, [0, 2, 1, 4], [0, 1, 2, 4]),
     r"vertices not strictly increasing near \(1/2,1/4\)$"),
    (lambda: Finite(1), "finite witness order must be an int >= 2, got 1$"),
    (lambda: ZMode(0), "Z-mode bound must be an int >= 1, got 0$"),
    (lambda: verify_ccc(GeneratorSet(PERM, (block_swap(1),)), Witness(block_swap(2), ZMode(4))),
     r"verify_ccc requires a Finite\(n\) witness$"),
    (lambda: pl.support_interval(GeneratorSet(pl.PL, (_BUMP_TOUCHING_0,))),
     r"^generator support \[0, 1/2\] touches the endpoints: \(0,0\) \(1/4,3/8\) \(1/2,1/2\) "
     r"\(1,1\)$"),
], ids=["IetMap", "make_iet", "IetMap-start", "make_iet-start", "PlMap", "make_pl", "Finite",
        "ZMode", "verify_ccc-ZMode", "support_interval"])
def test_bad_input_raises_value_error_itself(build, message):
    """One error for bad input, whatever the entry point: ValueError itself,
    no subclass of it and no CcckitError, with the message it always had."""
    with pytest.raises(ValueError, match=message) as caught:
        build()
    assert caught.type is ValueError


def test_bounded_products_sym3():
    gens = [perm_from_cycles([[1, 2]]), perm_from_cycles([[1, 2, 3]])]
    elements = bounded_products(PERM, gens, 3)
    assert len(elements) == 6  # all of Sym(3)


def test_extend_prefixes_names_and_counterexample():
    report = VerificationReport("outer")
    report.record("own", True, "e", "e")
    part = VerificationReport("part", bounded=True)
    part.record("a", True, "e", "e")
    part.record("b", False, "x", "e", "why")
    taken = list(part.checks)
    report.extend(part, prefix="lvl: ")
    assert [c["name"] for c in report.checks] == ["own", "lvl: a", "lvl: b"]
    assert report.checks[2]["status"] == "fail" and report.checks[2]["detail"] == "why"
    assert report.counterexample == "lvl: b: x != e"
    assert report.bounded
    # the first counterexample wins; an unprefixed extend appends as is
    more = VerificationReport("more")
    more.record("b", False, "y", "e")
    report.extend(more)
    assert report.checks[-1]["name"] == "b"
    assert report.counterexample == "lvl: b: x != e"
    # extend consumes other: it appends other's check dicts themselves, with
    # or without a prefix, and a prefix renames them in place
    assert all(x is y for x, y in zip(report.checks[1:], taken + more.checks, strict=True))
    assert part.checks == [
        {"name": "lvl: a", "status": "pass", "lhs": "e", "rhs": "e", "detail": ""},
        {"name": "lvl: b", "status": "fail", "lhs": "x", "rhs": "e", "detail": "why"},
    ]


def test_report_checks_have_the_keys_the_json_writer_lays_out():
    written = set(re.findall(r'"(\w+)": %s', cli._CHECK_JSON))
    assert len(written) == 5
    for label in ("perm", "perm-failing"):
        fam, gens, w = CCC_CASES[label]()
        report = verify_ccc(GeneratorSet(fam, gens), w)
        assert report.to_dict()["checks"] is report.checks
        assert all(set(c) == written for c in report.checks)


class HashCounted(int):
    """An int that counts how often an instance is hashed."""

    hashes = 0

    def __hash__(self):
        HashCounted.hashes += 1
        return int.__hash__(self)


class ShownZ4(GroupFamily):
    """Z/4 with the identity a HashCounted 0; a value renders as prefix +
    its residue, and the family lists the values it renders."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.rendered = []

    def identity(self):
        return HashCounted(0)

    def mul(self, a, b):
        return (a + b) % 4

    def inv(self, a):
        return -a % 4

    def eq(self, a, b):
        return a == b

    def render(self, a):
        self.rendered.append(a)
        return f"{self.prefix}{a}"


def test_report_text_renders_each_family_and_value_once():
    x, y = ShownZ4("x"), ShownZ4("y")
    report = VerificationReport("texts")
    assert ([report.text(x, 1), report.text(y, 1), report.text(x, 1), report.text(y, 2),
             report.text(y, 1)] == ["x1", "y1", "x1", "y2", "y1"])
    assert x.rendered == [1] and y.rendered == [1, 2]
    # the memo is the report's: a new report renders afresh
    assert VerificationReport("other").text(x, 1) == "x1" and x.rendered == [1, 1]
    HashCounted.hashes = 0
    for a, b in [(1, 2), (3, 3), (0, 1)]:
        record_commutation(x, report, "[a, b]", a, b)
        record_commutation(y, report, "[a, b]", a, b)
    # a pass writes "e" and renders nothing
    assert [c["lhs"] for c in report.checks] == ["e", "e"] * 3
    assert x.rendered == [1, 1] and y.rendered == [1, 2]
    assert HashCounted.hashes == 0


# ---------------------------------------------------------------------------
# Engine against a reference loop built from commutator and conjugate


def reference_lhs(fam, c):
    """A record's lhs: "e" when c = e, else c's rendering."""
    return "e" if fam.is_identity(c) else fam.render(c)


def reference_ccc(H, w, suite="ccc"):
    fam = H.family
    n = w.mode.n
    report = VerificationReport(suite)
    powers = [p for p in range(1, n)] + [-p for p in range(1, n)]
    tp_cache = {p: fam.power(w.t, p) for p in powers + [n]}
    for p in powers:
        for i, hi in enumerate(H.elements):
            for j, hj in enumerate(H.elements):
                c = commutator(fam, hi, conjugate(fam, tp_cache[p], hj))
                report.record(f"[h{i + 1}, ^(t^{p}) h{j + 1}]", fam.is_identity(c),
                              reference_lhs(fam, c), "e")
    for i, hi in enumerate(H.elements):
        c = commutator(fam, hi, tp_cache[n])
        report.record(f"[h{i + 1}, t^{n}]", fam.is_identity(c), reference_lhs(fam, c), "e")
    return report


def reference_czc(H, w, suite="czc"):
    fam = H.family
    P = w.mode.bound
    report = VerificationReport(suite, bounded=True)
    for p in [q for q in range(1, P + 1)] + [-q for q in range(1, P + 1)]:
        tp = fam.power(w.t, p)
        for i, hi in enumerate(H.elements):
            for j, hj in enumerate(H.elements):
                c = commutator(fam, hi, conjugate(fam, tp, hj))
                report.record(f"[h{i + 1}, ^(t^{p}) h{j + 1}]", fam.is_identity(c),
                              reference_lhs(fam, c), "e", f"bounded check, |p| <= {P}")
    return report


class CountingFamily(GroupFamily):
    """Wraps a family, forwards its supports, counts its mul, inv and eq
    calls and lists the values it renders."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.counts = Counter()
        self.rendered = []

    def check_element(self, a):
        self.inner.check_element(a)

    def identity(self):
        return self.inner.identity()

    def mul(self, a, b):
        self.counts["mul"] += 1
        return self.inner.mul(a, b)

    def inv(self, a):
        self.counts["inv"] += 1
        return self.inner.inv(a)

    def eq(self, a, b):
        self.counts["eq"] += 1
        return self.inner.eq(a, b)

    def support(self, a):
        return self.inner.support(a)

    def render(self, a):
        self.rendered.append(a)
        return self.inner.render(a)


def fails_at_a_positive_power(checks) -> bool:
    """Whether a [h_i, ^(t^p) h_j] record with p > 0 failed: exactly then
    the engine builds the sweep at p < 0 (see core._mirrors)."""
    return any(c["status"] == "fail" and re.match(r"\[h\d+, \^\(t\^\d", c["name"])
               for c in checks)


def engine_pairs(fam, gens, w, shift=None, sweeps=1):
    """The (name, a, b, sb) of every commutation record the engine decides,
    in report order, and the number of claims the engine checks.  With one
    sweep, when no record at a positive power fails, the engine decides no
    record at a negative power: it copies the outcome of its mirror.  sb is
    the support the engine reads for b: for a conjugate ^(t^p) h_j with a
    claim shift(h_j, p) that it checks (h_j's and the claim's supports
    known) and that holds, the claim's support, else b's own."""
    top = w.mode.n - 1 if isinstance(w.mode, Finite) else w.mode.bound
    powers = [sign * q for sign in (1, -1)[:sweeps] for q in range(1, top + 1)]
    pairs, checked = [], 0
    for p in powers:
        conjs = []
        for hj in gens:
            b = conjugate(fam, fam.power(w.t, p), hj)
            sb = fam.support(b)
            if shift is not None and fam.support(hj) is not None:
                claimed = shift(hj, p)
                if fam.support(claimed) is not None:
                    checked += 1
                    if fam.eq(b, claimed):
                        sb = fam.support(claimed)
            conjs.append((b, sb))
        pairs += [(f"[h{i + 1}, ^(t^{p}) h{j + 1}]", hi, b, sb)
                  for i, hi in enumerate(gens) for j, (b, sb) in enumerate(conjs)]
    if isinstance(w.mode, Finite):
        n = w.mode.n
        tn = fam.power(w.t, n)
        pairs += [(f"[h{i + 1}, t^{n}]", hi, tn, fam.support(tn)) for i, hi in enumerate(gens)]
    return pairs, checked


def _matrix_case(modulus):
    fam, w = mat.classical_witness("SL", 2, modulus)
    gens = (mat.elementary(2, 1, 2, 1, modulus), mat.elementary(2, 2, 1, 1, modulus),
            mat.matrix([[2, 1], [1, 1]], modulus))
    return fam, tuple(mat.corner_embed(g, fam.size) for g in gens), w


def _braid_case(n):
    return (braidmod.BraidFamily(2 * n),
            tuple(braidmod.braid(2 * n, (i,)) for i in range(1, n)) + (braidmod.braid(2 * n, (-1,)),),
            Witness(braidmod.block_pass_word(n), Finite(2)))


def _aut_free_case():
    n = 2
    gens = (fg.extend_rank(fg.nielsen_aut(n, 1, 2), 2 * n),
            fg.extend_rank(fg.permutation_aut(n, {1: 2, 2: 1}), 2 * n),
            fg.extend_rank(fg.inversion_aut(n, 1), 2 * n))
    return fg.FreeAutFamily(2 * n), gens, fg.aut_block_swap_witness(n)


def _iet_case():
    # the block 3/2, rotated by a third and by a half of it
    return (ietmod.IET, (ietmod.rotation(2, 3, 1), ietmod.rotation(4, 6, 3)),
            Witness(ietmod.block_exchange(2, 3), Finite(2)))


def _block_cycle_case(n, order):
    """H = <(1 2 3), (1 2)> on block 1 and the witness t of order n that
    moves block k of 3 points to block k + 1 mod n, claimed at order
    ``order``."""
    t = perm_from_cycles([[i + 3 * k for k in range(n)] for i in (1, 2, 3)])
    return (PERM, (perm_from_cycles([[1, 2, 3]]), perm_from_cycles([[1, 2]])),
            Witness(t, Finite(order)))


CCC_CASES = {
    "perm": lambda: (PERM, (perm_from_cycles([[1, 2, 3]]), perm_from_cycles([[1, 2]])),
                     Witness(block_swap(3), Finite(2))),
    "perm-failing": lambda: (PERM, (perm_from_cycles([[1, 2]]), perm_from_cycles([[2, 3]])),
                             Witness(perm_from_cycles([[2, 3, 4]]), Finite(3))),
    "matrix-Z": lambda: _matrix_case(None),
    "matrix-Z/5": lambda: _matrix_case(5),
    "aut-free": _aut_free_case,
    "braid-2": lambda: _braid_case(2),
    "braid-3": lambda: _braid_case(3),
    "braid-3-wrong-claim": lambda: _braid_case(3),
    # sigma_2 crosses the block boundary, so its conjugates fail to commute:
    # the failing records show the braid word (ab)(ba)^-1 letter for letter
    "braid-failing": lambda: (braidmod.BraidFamily(4),
                              (braidmod.braid(4, (1,)), braidmod.braid(4, (2,))),
                              Witness(braidmod.block_pass_word(2), Finite(2))),
    "iet": _iet_case,
    # order n = 2..8 passes, and the same t fails at order n + 1, where
    # ^(t^n) h_j is h_j again and [h_1, h_2] != e
    **{f"block-cycle-{n}{tail}": partial(_block_cycle_case, n, n + bool(tail))
       for n in range(2, 9) for tail in ("", "-failing")},
}

# the claims (Stable.shift) a case passes to verify_ccc: the braid record's
# own, and a wrong one, whose checks all fail and only lose certificates
CLAIMS = {"braid-2": suites.STABLE["braid"].shift, "braid-3": suites.STABLE["braid"].shift,
          "braid-3-wrong-claim": wrong_braid_shift}

CZC_CASES = {
    "pl": lambda: (pl.PL, (pl.bump(4, 1, 2), pl.bump(8, 3, 4)),
                   pl.displacement_witness(4, 1, 2, bound=4)),
    "pl-failing": lambda: (pl.PL, (pl.bump(4, 1, 2), pl.bump(8, 3, 6)),
                           Witness(pl.bump(8, 1, 7), ZMode(3))),
}


@pytest.mark.parametrize("label", sorted(CCC_CASES) + sorted(CZC_CASES))
def test_the_negative_sweep_is_built_exactly_after_a_failing_positive_record(label,
                                                                             monkeypatch):
    """The engine builds the sweep against t^-1 exactly when a record at
    p > 0 fails, as the reference loop decides it: whatever t is, an
    involution or not.  Otherwise it copies each record's mirror."""
    sweeps = []
    build = core._neighbour_conjugates

    def recording(fam, hs, s, s_inv, top):
        sweeps.append((s, s_inv))
        return build(fam, hs, s, s_inv, top)

    monkeypatch.setattr(core, "_neighbour_conjugates", recording)
    fam, gens, w = {**CCC_CASES, **CZC_CASES}[label]()
    t_inv = fam.inv(w.t)
    engine, reference = ((verify_ccc, reference_ccc) if isinstance(w.mode, Finite)
                         else (verify_czc, reference_czc))
    engine(GeneratorSet(fam, gens), w)
    failed = fails_at_a_positive_power(reference(GeneratorSet(fam, gens), w).checks)
    assert sweeps == [(w.t, t_inv), (t_inv, w.t)][:1 + failed]
    assert failed == label.endswith("failing")


@pytest.mark.parametrize("label", sorted(label for label in CCC_CASES
                                         if label.startswith("block-cycle-")))
def test_only_value_involutions_skip_the_negative_sweep(label, monkeypatch):
    """Among the block cycles only order 2 is a value involution, t == t^-1,
    and being one no longer decides whether the sweep against t^-1 is built:
    a passing run of any order skips it (the mirror replay), a failing run
    of any order builds it.  Built for the involution, that sweep repeats
    the sweep against t conjugate for conjugate; for order 3 and up it
    does not."""
    sweeps = []
    build = core._neighbour_conjugates

    def recording(fam, hs, s, s_inv, top):
        sweep = list(build(fam, hs, s, s_inv, top))
        sweeps.append(sweep)
        return iter(sweep)

    monkeypatch.setattr(core, "_neighbour_conjugates", recording)
    fam, gens, w = CCC_CASES[label]()
    involution = w.t == fam.inv(w.t)
    assert involution == label.startswith("block-cycle-2")
    failing = label.endswith("failing")
    assert verify_ccc(GeneratorSet(fam, gens), w).passed != failing
    assert len(sweeps) == 1 + failing
    if failing:
        assert (sweeps[1] == sweeps[0]) == involution


def _assert_engine_matches_reference(engine, reference, case, shift=None):
    """engine, given shift as its claims when it is not None, writes the
    reference's report with an exact count of its operations."""
    fam, gens, w = case()
    counted_ref = CountingFamily(fam)
    expected = reference(GeneratorSet(counted_ref, gens), w).to_dict()
    counted = CountingFamily(fam)
    claims = {} if shift is None else {"shift": shift}
    got = engine(GeneratorSet(counted, gens), w, **claims).to_dict()
    assert got == expected
    # the engine inverts t once and builds each conjugate ^(t^p) h_j once
    # per (p, j) from its neighbour, with two products against t or t^-1;
    # it builds the p < 0 sweep only when a record at p > 0 fails.  The
    # finite battery also builds t^n by binary powering, and the Z-mode
    # battery no power of t at all
    h = len(gens)
    sweeps = 1 + fails_at_a_positive_power(expected["checks"])
    if isinstance(w.mode, Finite):
        table = binary_power_products(w.mode.n)
        top = w.mode.n - 1
        records = 2 * top * h * h + h  # and [h_i, t^n] for each i
    else:
        table = 0
        top = w.mode.bound
        records = 2 * top * h * h
    # a record whose supports are disjoint is certified with no product and
    # no eq; every other decided one checks ab = ba with two products and
    # one eq, and a failing one then builds the commutator
    # [a, b] = (ab)(ba)^-1, one product and one inversion.  A record the
    # engine copies from its mirror costs nothing.  Each checked claim costs
    # one eq, and one that holds lends its support to the conjugate's records
    pairs, checked = engine_pairs(fam, gens, w, shift, sweeps)
    assert len(got["checks"]) == records
    assert len(pairs) == records - (2 - sweeps) * top * h * h
    certified = sum(not supports_overlap(fam.support(a), sb) for _, a, _, sb in pairs)
    decided = {name for name, _, _, _ in pairs}
    failing = sum(c["status"] == "fail" for c in got["checks"] if c["name"] in decided)
    assert counted.counts["mul"] == (table + 2 * sweeps * top * h + 2 * (len(pairs) - certified)
                                     + 1 * failing)
    assert counted.counts["inv"] == 1 + 1 * failing
    assert counted.counts["eq"] == (len(pairs) - certified) + checked
    assert checked == (0 if shift is None else sweeps * top * h)
    # the reference renders every failing check's value; the engine each
    # distinct one once, and no passing check's
    assert Counter(counted.rendered) == Counter(set(counted_ref.rendered))
    return expected


@pytest.mark.parametrize("label", sorted(CCC_CASES))
def test_verify_ccc_matches_reference_loop(label):
    expected = _assert_engine_matches_reference(verify_ccc, reference_ccc, CCC_CASES[label],
                                                CLAIMS.get(label))
    assert expected["checks"]
    assert (expected["counterexample"] is not None) == label.endswith("failing")


@pytest.mark.parametrize("label", ["matrix-Z", "matrix-Z/5"])
def test_passing_matrix_battery_renders_nothing(label):
    fam, gens, w = CCC_CASES[label]()
    counted = CountingFamily(fam)
    report = verify_ccc(GeneratorSet(counted, gens), w)
    assert report.passed
    assert len(report.checks) == 2 * (w.mode.n - 1) * len(gens) ** 2 + len(gens)
    assert counted.rendered == []
    assert {c["lhs"] for c in report.checks} == {"e"}
    assert report.to_dict() == reference_ccc(GeneratorSet(fam, gens), w).to_dict()


@pytest.mark.parametrize("label", ["perm", "matrix-Z", "matrix-Z/5"]
                         + [f"block-cycle-{n}" for n in range(2, 9)])
def test_passing_battery_certifies_every_record(label):
    """On a passing perm or matrix battery the witness moves each h_j off
    block 1, and t^n = e moves nothing, so every record, each
    [h_i, ^(t^p) h_j] among them, is certified by disjoint supports: the
    engine's only products are the conjugates', of the p > 0 sweep alone,
    and those binary powering makes for t^n."""
    fam, gens, w = CCC_CASES[label]()
    counted = CountingFamily(fam)
    report = verify_ccc(GeneratorSet(counted, gens), w)
    assert report.passed
    pairs, _ = engine_pairs(fam, gens, w)
    assert not any(supports_overlap(fam.support(a), sb) for _, a, _, sb in pairs)
    n = w.mode.n
    assert counted.counts == Counter(
        mul=binary_power_products(n) + 2 * (n - 1) * len(gens), inv=1)


@pytest.mark.parametrize("label", ["braid-2", "braid-3"])
def test_braid_claims_certify_every_conjugate_record(label):
    """The block pass t carries sigma_j to sigma_(j+n).  With those claims
    every [h_i, ^t h_j] record is certified, after one eq per j checks
    the claim, and those at t^-1 copy their mirrors; only the [h_i, t^2]
    records are decided, with two products and one eq each."""
    fam, gens, w = CCC_CASES[label]()
    counted = CountingFamily(fam)
    report = verify_ccc(GeneratorSet(counted, gens), w, shift=CLAIMS[label])
    assert report.passed
    h = len(gens)
    assert counted.counts == Counter(mul=1 + 2 * h + 2 * h, inv=1, eq=h + h)


@pytest.mark.parametrize("label", sorted(CZC_CASES))
def test_verify_czc_matches_reference_loop(label):
    expected = _assert_engine_matches_reference(verify_czc, reference_czc, CZC_CASES[label])
    assert expected["checks"]
    assert (expected["counterexample"] is not None) == label.endswith("failing")


# ---------------------------------------------------------------------------
# The mirror replay against the two-sweep path


def _block_cycle(n, k):
    """The permutation that moves block b of k points to block b + 1 mod n."""
    return perm_from_cycles([[i + k * b for b in range(n)] for i in range(1, k + 1)])


@st.composite
def _perm_runs(draw):
    """verify_ccc on perms: H inside block 1 of 3 points, or reaching into
    block 2, and a block cycle t of order 2..6 claimed at order 2..6."""
    letters = [perm_from_cycles([[1, 2, 3]]), perm_from_cycles([[1, 2]]),
               perm_from_cycles([[3, 4]])][:draw(st.sampled_from([2, 3]))]
    gens = draw(st.lists(products_of(PERM, letters, 3), min_size=1, max_size=3))
    t = _block_cycle(draw(st.integers(2, 6)), 3)
    return partial(verify_ccc, GeneratorSet(PERM, tuple(gens)),
                   Witness(t, Finite(draw(st.integers(2, 6)))))


@st.composite
def _matrix_runs(draw):
    """verify_ccc on matrices over Z/3: H inside block 1 of 2 coordinates,
    or reaching into block 2, and the block cycle's permutation matrix t
    of order 2..6 claimed at order 2..6."""
    n = draw(st.integers(2, 6))
    fam = mat.MatrixFamily(2 * n, 3)
    letters = [mat.corner_embed(mat.elementary(2, 1, 2, 1, 3), 2 * n),
               mat.corner_embed(mat.elementary(2, 2, 1, 1, 3), 2 * n),
               mat.elementary(2 * n, 2, 3, 1, 3)][:draw(st.sampled_from([2, 3]))]
    gens = draw(st.lists(products_of(fam, letters, 3), min_size=1, max_size=3))
    t = mat.perm_to_matrix(_block_cycle(n, 2), 2 * n, 3)
    return partial(verify_ccc, GeneratorSet(fam, tuple(gens)),
                   Witness(t, Finite(draw(st.integers(2, 6)))))


@st.composite
def _braid_runs(draw):
    """verify_ccc on braids: H inside the first block of k = 2, 3 strands,
    or crossing it with sigma_k when there are no claims, and the block
    pass t claimed at order 2 or 3, with the braid battery's claims, which
    hold on the first block, or none."""
    k = draw(st.integers(2, 3))
    fam = braidmod.BraidFamily(2 * k)
    claims = draw(st.sampled_from([None, suites.STABLE["braid"].shift]))
    reach = k - 1 if claims else draw(st.sampled_from([k - 1, k]))
    letters = [braidmod.braid(2 * k, (x,)) for x in range(-reach, reach + 1) if x]
    gens = draw(st.lists(products_of(fam, letters, 2), min_size=1, max_size=2))
    return partial(verify_ccc, GeneratorSet(fam, tuple(gens)),
                   Witness(braidmod.block_pass_word(k), Finite(draw(st.integers(2, 3)))),
                   shift=claims)


@st.composite
def _pl_runs(draw):
    """verify_czc on pl: bumps inside [1/4, 1/2] or past it, with the
    witness that displaces [1/4, 1/2] or a bump across all of them, at
    Z-mode bounds 1..8."""
    bumps = [pl.bump(4, 1, 2), pl.bump(8, 3, 4), pl.bump(8, 2, 3), pl.bump(8, 3, 6)]
    gens = draw(st.lists(st.sampled_from(bumps), min_size=1, max_size=2))
    bound = draw(st.integers(1, 8))
    w = draw(st.sampled_from([pl.displacement_witness(4, 1, 2, bound=bound),
                              Witness(pl.bump(8, 1, 7), ZMode(bound))]))
    return partial(verify_czc, GeneratorSet(pl.PL, tuple(gens)), w)


MIRROR_RUNS = {"perm": _perm_runs(), "matrix-Z/3": _matrix_runs(), "braid": _braid_runs(),
               "pl": _pl_runs()}


def _agrees_with_two_sweeps(run, mirrors) -> bool:
    """Whether run() writes, with mirrors as core._mirrors, the report it
    writes with a predicate that never replays: the two-sweep path, which
    builds and decides every record at p < 0."""
    with mock.patch.object(core, "_mirrors", mirrors):
        replayed = run().to_dict()
    with mock.patch.object(core, "_mirrors", lambda report: False):
        return replayed == run().to_dict()


@pytest.mark.parametrize("name", sorted(MIRROR_RUNS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mirror_replay_writes_the_two_sweep_report(name, data):
    assert _agrees_with_two_sweeps(data.draw(MIRROR_RUNS[name], label="run"), core._mirrors)


@pytest.mark.parametrize("name", sorted(MIRROR_RUNS))
def test_the_mirror_property_sees_replays_and_refuses_replay_after_a_failure(name):
    """The runs above include ones that replay, and the property fails for
    a predicate that also replays after a failing p > 0 record: its copies
    of failing records show their mirrors' commutators, not their own."""
    quick = settings(deadline=None, database=None)
    find(MIRROR_RUNS[name], lambda run: not fails_at_a_positive_power(run().checks),
         settings=quick)
    find(MIRROR_RUNS[name], lambda run: not _agrees_with_two_sweeps(run, lambda report: True),
         settings=quick)


# ---------------------------------------------------------------------------
# commutes against the commutator it replaces


def _engine_inputs(family):
    """(group family, generators + witness elements) for each engine call
    that the family's battery makes at its default parameters."""
    inputs = []

    def capture(run, inputs_of):
        def wrapped(*args, **kwargs):
            inputs.append(inputs_of(*args))
            return run(*args, **kwargs)
        return wrapped

    def battery_inputs(H, w):
        return H.family, H.elements + (w.t,)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "verify_ccc", capture(suites.verify_ccc, battery_inputs))
        mp.setattr(pl, "verify_czc", capture(pl.verify_czc, battery_inputs))
        mp.setattr(wreathmod, "check_hom", capture(
            wreathmod.check_hom, lambda f, samples: (f.family, f.chain.generators + f.chain.ts)))
        suites.run_family(family)
    return inputs


@pytest.mark.parametrize("family", sorted(suites.FAMILIES))
def test_commutes_agrees_with_the_commutator(family):
    """On random products a, b of a battery's generators and witness,
    commutes(a, b) is [a, b] = e, and the engine's record writes "e" on a
    pass and the commutator on a fail.  The examples are
    derandomized: with random draws, 40 of them in the 8-element group of
    the perm battery all commuted in about 3 runs in 100, and the check that
    both verdicts occur failed."""
    inputs = _engine_inputs(family)
    assert inputs
    for fam, letters in inputs:
        verdicts = set()
        alphabet = letters + tuple(fam.inv(x) for x in letters)
        words = st.lists(st.sampled_from(alphabet), max_size=4)

        @settings(max_examples=40, deadline=None, derandomize=True)
        @given(words, words)
        def check(u, v):
            a, b = fam.product(u), fam.product(v)
            c = commutator(fam, a, b)
            ok = commutes(fam, a, b)
            assert ok == fam.is_identity(c)
            report = VerificationReport("oracle")
            record_commutation(fam, report, "[a, b]", a, b)
            assert report.checks[0]["status"] == ("pass" if ok else "fail")
            assert report.checks[0]["lhs"] == ("e" if ok else fam.render(c))
            verdicts.add(ok)

        check()
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# verify_ccc's verdict against a brute-force oracle that calls no family


def _oracle_ops(kind):
    """(mul, inv) on raw data: a permutation of 1..k as its tuple of images,
    composed point by point, or a 2 x 2 matrix over Z/kind as its dense
    rows, multiplied mod kind."""
    if kind == "perm":
        def mul(a, b):
            return tuple(a[y - 1] for y in b)

        def inv(a):
            out = [0] * len(a)
            for x, y in enumerate(a, 1):
                out[y - 1] = x
            return tuple(out)
        return mul, inv

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) % kind for j in range(2))
                     for i in range(2))

    def inv(a):
        (w, x), (y, z) = a
        d = pow(w * z - x * y, -1, kind)
        return ((z * d % kind, -x * d % kind), (-y * d % kind, w * d % kind))
    return mul, inv


def oracle_ccc(kind, hs, t, n) -> bool:
    """[h_i, ^(t^p) h_j] = e for 1 <= |p| < n and every i, j, and
    [h_i, t^n] = e for every i, each decided as ab = ba."""
    mul, inv = _oracle_ops(kind)
    identity = mul(t, inv(t))

    def power(a, k):
        out, step = identity, a if k >= 0 else inv(a)
        for _ in range(abs(k)):
            out = mul(out, step)
        return out

    def commute(a, b):
        return mul(a, b) == mul(b, a)

    return (all(commute(hi, mul(mul(power(t, p), hj), power(t, -p)))
                for p in range(1 - n, n) if p for hi in hs for hj in hs)
            and all(commute(h, power(t, n)) for h in hs))


@st.composite
def ccc_cases(draw):
    """(kind, hs, t, n, order): 1-3 generators and any witness among the
    permutations of k <= 6 points or the invertible 2 x 2 matrices over Z/2
    or Z/3, n = 2..4, and an order of the generators."""
    kind = draw(st.sampled_from(["perm", 2, 3]))
    if kind == "perm":
        element = st.permutations(range(1, draw(st.integers(1, 6)) + 1)).map(tuple)
    else:
        element = st.tuples(*[st.integers(0, kind - 1)] * 4).filter(
            lambda e: (e[0] * e[3] - e[1] * e[2]) % kind).map(lambda e: (e[:2], e[2:]))
    hs = tuple(draw(st.lists(element, min_size=1, max_size=3)))
    return kind, hs, draw(element), draw(st.integers(2, 4)), draw(st.permutations(range(len(hs))))


@example(("perm", ((2, 1, 3, 4),), (3, 4, 1, 2), 2, [0]))  # [(1 2), (3 4)] = e: passes
# over Z/3, every conjugate of h = [[1, 1], [0, 1]] by t = diag(2, 1) is
# upper unitriangular, so only [h, t^3] = [h, t] fails
@example((3, (((1, 1), (0, 1)),), ((2, 0), (0, 1)), 3, [0]))
@settings(max_examples=300, deadline=None)
@given(ccc_cases())
def test_verify_ccc_verdict_matches_brute_force(case):
    kind, hs, t, n, order = case
    if kind == "perm":
        fam = PERM

        def element(a):
            return permmod.perm_from_mapping(dict(enumerate(a, 1)))
    else:
        fam = mat.MatrixFamily(2, kind)

        def element(a):
            return mat.matrix(a, kind)
    w = Witness(element(t), Finite(n))
    expected = oracle_ccc(kind, hs, t, n)
    for gens in (hs, tuple(hs[i] for i in order)):
        assert verify_ccc(GeneratorSet(fam, tuple(map(element, gens))), w).passed == expected


def test_the_pinned_verdicts():
    assert oracle_ccc("perm", ((2, 1, 3, 4),), (3, 4, 1, 2), 2)
    assert not oracle_ccc(3, (((1, 1), (0, 1)),), ((2, 0), (0, 1)), 3)
    assert oracle_ccc(3, (((1, 1), (0, 1)),), ((2, 0), (0, 1)), 2)
