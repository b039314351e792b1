from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ccckit import plhomeo as pl
from ccckit.core import GeneratorSet, Witness, ZMode, verify_czc


def test_apply_oracle():
    f = pl.make_pl([(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)])
    assert pl.apply(f, Fraction(1, 4)) == Fraction(3, 8)
    assert pl.apply(f, Fraction(3, 4)) == Fraction(7, 8)
    assert pl.apply(f, 0) == 0 and pl.apply(f, 1) == 1


def test_vertex_validation():
    with pytest.raises(pl.InvalidPlMapError, match="collinear"):
        pl.PlMap(2, (0, 1, 2), (0, 1, 2))  # (1/2, 1/2) is a collinear interior vertex
    with pytest.raises(pl.InvalidPlMapError):
        pl.PlMap(1, (0,), (0,))
    with pytest.raises(pl.InvalidPlMapError, match="lowest terms"):
        pl.PlMap(8, (0, 4, 8), (0, 6, 8))  # (1/2, 3/4) over denominator 8
    with pytest.raises(pl.InvalidPlMapError, match="int"):
        pl.PlMap(1, (Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    assert pl.PlMap(4, (0, 2, 4), (0, 3, 4)).vertices == (
        (0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1))
    with pytest.raises(pl.InvalidPlMapError):
        pl.make_pl([(0, 0), (Fraction(1, 2), Fraction(1, 4)),
                    (Fraction(1, 4), Fraction(1, 2)), (1, 1)])


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)


@pytest.mark.parametrize("vertices", [
    [(0, 0), (HALF, HALF), (QUARTER, QUARTER), (1, 1)],  # x goes back; all collinear
    [(0, 0), (2, 2), (1, 1)],  # leaves [0, 1]; all collinear
    [(0, 0), (HALF, HALF), (HALF, HALF), (1, 1)],  # repeated vertex
    [(0, 0), (HALF, HALF)],  # does not end at (1, 1)
    [(QUARTER, QUARTER), (1, 1)],  # does not start at (0, 0)
    [(0, 0), (HALF, QUARTER), (QUARTER, HALF), (1, 1)],
])
def test_malformed_raw_vertices_rejected(vertices):
    with pytest.raises(pl.InvalidPlMapError):
        pl.make_pl(vertices)


def test_make_pl_drops_collinear():
    f = pl.make_pl([(0, 0), (Fraction(1, 4), Fraction(1, 4)),
                    (Fraction(1, 2), Fraction(1, 2)), (1, 1)])
    assert f == pl.IDENTITY


def test_inverse_and_compose():
    f = pl.make_pl([(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)])
    assert pl.compose(f, pl.inverse(f)) == pl.IDENTITY
    g = pl.bump(Fraction(1, 4), Fraction(1, 2))
    h = pl.compose(f, g)
    for k in range(9):
        x = Fraction(k, 8)
        assert pl.apply(h, x) == pl.apply(f, pl.apply(g, x))


dyadic = st.integers(min_value=0, max_value=32).map(lambda k: Fraction(k, 32))


@given(dyadic)
def test_bump_identity_outside_support(x):
    f = pl.bump(Fraction(1, 4), Fraction(1, 2))
    if x <= Fraction(1, 4) or x >= Fraction(1, 2):
        assert pl.apply(f, x) == x
    else:
        assert pl.apply(f, x) > x


def test_support_closure():
    f = pl.bump(Fraction(1, 4), Fraction(1, 2))
    assert pl.support_closure(f) == (Fraction(1, 4), Fraction(1, 2))
    assert pl.support_closure(pl.IDENTITY) is None


def test_support_interval():
    H = GeneratorSet(pl.PL, (pl.bump(Fraction(1, 4), Fraction(1, 2)),
                             pl.bump(Fraction(1, 8), Fraction(3, 8))))
    assert pl.support_interval(H) == (Fraction(1, 8), Fraction(1, 2))


def test_not_compactly_supported():
    f = pl.make_pl([(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)])
    with pytest.raises(pl.NotCompactlySupportedError):
        pl.support_interval(GeneratorSet(pl.PL, (f,)))


def test_displacement_witness_moves_a_past_b():
    a, b = Fraction(1, 4), Fraction(1, 2)
    w = pl.displacement_witness(a, b, bound=6)
    assert isinstance(w.mode, ZMode) and w.mode.bound == 6
    assert pl.apply(w.t, a) > b
    # dyadic data stays dyadic
    assert all(x.denominator & (x.denominator - 1) == 0 and
               y.denominator & (y.denominator - 1) == 0 for x, y in w.t.vertices)


def test_verify_displaced_supports_agreement():
    a, b = Fraction(1, 4), Fraction(1, 2)
    H = GeneratorSet(pl.PL, (pl.bump(a, b),))
    w = pl.displacement_witness(a, b, bound=5)
    report = pl.verify_displaced_supports(H, w.t, 5)
    assert report.passed and report.bounded
    agree = [c for c in report.checks if "agree" in c["name"]]
    assert len(agree) == 1 and agree[0]["status"] == "pass"


def test_verify_displaced_supports_detects_bad_witness():
    a, b = Fraction(1, 4), Fraction(3, 4)
    H = GeneratorSet(pl.PL, (pl.bump(a, b),))
    weak = pl.make_pl([(0, 0), (a, Fraction(1, 2)), (1, 1)])  # t(a) < b
    report = pl.verify_displaced_supports(H, weak, 4)
    assert not report.passed
    # the two methods still agree on the verdict
    agree = [c for c in report.checks if "agree" in c["name"]]
    assert agree[0]["status"] == "pass"


def test_displacement_escalates():
    a, b = Fraction(1, 8), Fraction(1, 4)
    w = pl.displacement_witness(a, b, bound=7)
    assert pl.displacement_escalates(w.t, a, b, 7) == [True] * 7


def test_czc_battery():
    a, b = Fraction(1, 4), Fraction(1, 2)
    H = GeneratorSet(pl.PL, (pl.bump(a, b),))
    w = pl.displacement_witness(a, b, bound=8)
    report = verify_czc(H, w)
    assert report.passed and report.bounded


def test_bump_validation():
    with pytest.raises(ValueError):
        pl.bump(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        pl.displacement_witness(Fraction(1, 2), Fraction(1, 4))
