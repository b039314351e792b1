from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import plhomeo as pl
from ccckit import suites
from ccckit.core import GeneratorSet, Witness, ZMode, verify_czc

from util import displacement_escalates

# the vertex (1/2, 3/4)
KINK = (4, [0, 2, 4], [0, 3, 4])


def test_apply_oracle():
    f = pl.make_pl(*KINK)
    assert pl.apply(f, 1, 4) == (3, 8)
    assert pl.apply(f, 6, 8) == (7, 8)
    assert pl.apply(f, 0, 1) == (0, 1) and pl.apply(f, 3, 3) == (1, 1)


def test_vertex_validation():
    with pytest.raises(ValueError, match="collinear"):
        pl.PlMap(2, (0, 1, 2), (0, 1, 2))  # (1/2, 1/2) is a collinear interior vertex
    with pytest.raises(ValueError, match=r"vertices must run from \(0,0\) to \(1,1\)"):
        pl.PlMap(1, (0,), (0,))
    with pytest.raises(ValueError, match="lowest terms"):
        pl.PlMap(8, (0, 4, 8), (0, 6, 8))  # (1/2, 3/4) over denominator 8
    with pytest.raises(ValueError, match="int"):
        pl.PlMap(1, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    assert pl.make_pl(8, [0, 4, 8], [0, 6, 8]) == pl.PlMap(4, (0, 2, 4), (0, 3, 4))
    with pytest.raises(ValueError, match=r"not strictly increasing near \(1/2,1/4\)"):
        pl.make_pl(4, [0, 2, 1, 4], [0, 1, 2, 4])


@pytest.mark.parametrize("vertices, why", [
    ((4, [0, 2, 1, 4], [0, 2, 1, 4]), r"increasing near \(1/2,1/2\)"),  # x goes back; collinear
    ((1, [0, 2, 1], [0, 2, 1]), r"increasing near \(2,2\)"),  # leaves [0, 1]; all collinear
    ((2, [0, 1, 1, 2], [0, 1, 1, 2]), r"increasing near \(1/2,1/2\)"),  # repeated vertex
    ((2, [0, 1], [0, 1]), r"must run from \(0,0\) to \(1,1\)"),  # does not end at (1, 1)
    ((4, [1, 4], [1, 4]), r"must run from \(0,0\) to \(1,1\)"),  # does not start at (0, 0)
    ((4, [0, 2, 1, 4], [0, 1, 2, 4]), r"increasing near \(1/2,1/4\)"),
], ids=[f"vertices{i}" for i in range(6)])
def test_malformed_raw_vertices_rejected(vertices, why):
    with pytest.raises(ValueError, match=why):
        pl.make_pl(*vertices)


def test_make_pl_drops_collinear():
    assert pl.make_pl(4, [0, 1, 2, 4], [0, 1, 2, 4]) == pl.IDENTITY


def test_inverse_and_compose():
    f = pl.make_pl(*KINK)
    assert pl.compose(f, pl.inverse(f)) == pl.IDENTITY
    g = pl.bump(4, 1, 2)
    h = pl.compose(f, g)
    for k in range(9):
        assert pl.apply(h, k, 8) == pl.apply(f, *pl.apply(g, k, 8))


@given(st.integers(min_value=0, max_value=32))
def test_bump_identity_outside_support(k):
    x = Fraction(k, 32)
    y = Fraction(*pl.apply(pl.bump(4, 1, 2), k, 32))
    if x <= Fraction(1, 4) or x >= Fraction(1, 2):
        assert y == x
    else:
        assert y > x


def test_support_closure():
    f = pl.bump(4, 1, 2)  # over den 16
    assert pl.support_closure(f) == ((4, 16), (8, 16))
    assert pl.support_closure(pl.IDENTITY) is None


def test_support_interval():
    H = GeneratorSet(pl.PL, (pl.bump(4, 1, 2), pl.bump(8, 1, 3)))
    lo, hi = pl.support_interval(H)
    assert (Fraction(*lo), Fraction(*hi)) == (Fraction(1, 8), Fraction(1, 2))


def test_not_compactly_supported():
    f = pl.make_pl(*KINK)
    with pytest.raises(ValueError,
                       match=r"^generator support \[0, 1\] touches the endpoints: \(0,0\) "):
        pl.support_interval(GeneratorSet(pl.PL, (f,)))


def test_displacement_witness_moves_a_past_b():
    w = pl.displacement_witness(4, 1, 2, bound=6)  # a = 1/4, b = 1/2
    assert isinstance(w.mode, ZMode) and w.mode.bound == 6
    assert Fraction(*pl.apply(w.t, 1, 4)) > Fraction(1, 2)
    # dyadic data stays dyadic
    assert w.t.den & (w.t.den - 1) == 0


def test_verify_displaced_supports_agreement():
    H = GeneratorSet(pl.PL, (pl.bump(4, 1, 2),))
    w = pl.displacement_witness(4, 1, 2, bound=5)
    report = pl.verify_displaced_supports(H, w)
    assert report.passed and report.bounded
    agree = [c for c in report.checks if "agree" in c["name"]]
    assert len(agree) == 1 and agree[0]["status"] == "pass"


def test_verify_displaced_supports_detects_bad_witness():
    H = GeneratorSet(pl.PL, (pl.bump(4, 1, 3),))  # [1/4, 3/4]
    weak = pl.make_pl(4, [0, 1, 4], [0, 2, 4])  # t(1/4) = 1/2 < 3/4
    report = pl.verify_displaced_supports(H, Witness(weak, ZMode(4)))
    assert not report.passed
    # the two methods still agree on the verdict
    agree = [c for c in report.checks if "agree" in c["name"]]
    assert agree[0]["status"] == "pass"


def escalation_record(t, a, b, P) -> dict:
    """The escalation record of verify_displaced_supports, as the pl
    battery wrote it from the oracle's separate orbit walks."""
    esc = displacement_escalates(t, a, b, P)
    return {"name": f"[{a},{b}]: displacement escalation",
            "status": "pass" if all(esc) else "fail",
            "lhs": " ".join("ok" if e else "fail" for e in esc), "rhs": "all ok", "detail": ""}


def test_displacement_escalates():
    a, b = Fraction(1, 8), Fraction(1, 4)
    w = pl.displacement_witness(8, 1, 2, bound=7)
    assert displacement_escalates(w.t, a, b, 7) == [True] * 7
    report = pl.verify_displaced_supports(GeneratorSet(pl.PL, (pl.bump(8, 1, 2),)), w)
    assert report.checks[-1] == escalation_record(w.t, a, b, 7)
    assert report.checks[-1]["status"] == "pass"


def test_escalation_record_fails_for_a_witness_that_does_not_displace():
    # t(a) <= b, so t^p(a) <= t^(p-1)(b) for every p
    a, b = Fraction(1, 4), Fraction(3, 4)
    for peak in (2, 3):  # t(1/4) = 1/2 and t(1/4) = b, over den 4
        weak = pl.make_pl(4, [0, 1, 4], [0, peak, 4])
        report = pl.verify_displaced_supports(GeneratorSet(pl.PL, (pl.bump(4, 1, 3),)),
                                              Witness(weak, ZMode(5)))
        assert report.checks[-1] == escalation_record(weak, a, b, 5)
        assert report.checks[-1]["lhs"] == " ".join(["fail"] * 5)


# the pl battery's three instances
@pytest.mark.parametrize("a, b", [(Fraction(1, 4), Fraction(1, 2)),
                                  (Fraction(1, 8), Fraction(1, 4)),
                                  (Fraction(3, 8), Fraction(1, 2))])
@pytest.mark.parametrize("peak", ["identity", "below b", "at b"])
def test_a_broken_witness_fails_the_geometric_records(a, b, peak):
    """Negative control for the pl battery: the identity, or a t with
    t(a) <= b, so that ^t H's support [t(a), t(b)] meets H's, [a, b], and
    the geometric record at p = 1 fails.  H is a single bump h.  For the
    identity, and for t(a) = b, where the two supports share one point,
    [h, ^(t^p) h] = e holds, so every algebraic record passes and only the
    geometric records (and the verdicts' disagreement) fail the report.
    For t(a) < b the overlapping bumps do not commute, and both fail."""
    a, b = int(a * 8), int(b * 8)  # in eighths
    t = pl.IDENTITY if peak == "identity" else pl.make_pl(
        16, [0, 2 * a, 16], [0, 2 * b if peak == "at b" else a + b, 16])
    H = GeneratorSet(pl.PL, (pl.bump(8, a, b),))
    report = pl.verify_displaced_supports(H, Witness(t, ZMode(8)))
    status = {c["name"]: c["status"] for c in report.checks}
    assert status["supp(^(t^1)H) disjoint from supp(H)"] == "fail"
    assert not report.passed
    algebraic = verify_czc(H, Witness(t, ZMode(8)))
    assert algebraic.passed == (peak != "below b")
    assert status["algebraic and geometric verdicts agree"] == (
        "pass" if peak == "below b" else "fail")


@st.composite
def displaced_instances(draw):
    """An interval [a, b] on the 1/32 grid, as its numerators, a map t with
    up to 3 interior vertices on the 1/16 grid, which may or may not push a
    past b, and a bound P."""
    a, b = sorted(draw(st.sets(st.integers(1, 31), min_size=2, max_size=2)))
    k = draw(st.integers(0, 3))
    xs = sorted(draw(st.sets(st.integers(1, 15), min_size=k, max_size=k)))
    ys = sorted(draw(st.sets(st.integers(1, 15), min_size=k, max_size=k)))
    t = pl.make_pl(16, [0, *xs, 16], [0, *ys, 16])
    return a, b, t, draw(st.integers(1, 8))


@settings(max_examples=200, deadline=None)
@given(displaced_instances())
def test_escalation_record_matches_the_separate_orbit_walks(instance):
    a, b, t, P = instance
    report = pl.verify_displaced_supports(GeneratorSet(pl.PL, (pl.bump(32, a, b),)),
                                          Witness(t, ZMode(P)))
    assert report.checks[-1] == escalation_record(t, Fraction(a, 32), Fraction(b, 32), P)
    assert len(report.checks) == 2 * P + P + 2  # algebraic, geometric, agreement, escalation


def test_trivial_generators_have_no_walk_and_no_escalation_record(monkeypatch):
    calls = []
    monkeypatch.setattr(pl, "apply", lambda *args: calls.append(args))
    report = pl.verify_displaced_supports(GeneratorSet(pl.PL, (pl.IDENTITY,)),
                                          pl.displacement_witness(4, 1, 2, bound=4))
    assert not calls
    assert report.checks[-1]["name"] == "algebraic and geometric verdicts agree"
    assert report.passed


@pytest.mark.parametrize("bound", [8, 16, 64])
def test_pl_battery_walks_each_orbit_once(bound, monkeypatch):
    """Each of the 3 instances walks the t-orbits of its two support ends
    once, to p = bound, for its geometric and escalation records alike:
    6 * bound calls of the walk's int step, pl.apply, in all."""
    calls = []
    step = pl.apply

    def counting(f, n, d):
        calls.append((n, d))
        return step(f, n, d)

    monkeypatch.setattr(pl, "apply", counting)
    report = suites.pl_battery(3, bound, 0)
    assert len(calls) == 6 * bound
    assert report.passed
    assert [c["name"] for c in report.checks if "escalation" in c["name"]] == [
        "[1/4,1/2]: displacement escalation", "[1/8,1/4]: displacement escalation",
        "[3/8,1/2]: displacement escalation"]


def test_czc_battery():
    H = GeneratorSet(pl.PL, (pl.bump(4, 1, 2),))
    w = pl.displacement_witness(4, 1, 2, bound=8)
    report = verify_czc(H, w)
    assert report.passed and report.bounded


def test_bump_validation():
    with pytest.raises(ValueError):
        pl.bump(4, 2, 1)
    with pytest.raises(ValueError):
        pl.displacement_witness(4, 2, 1, 8)
