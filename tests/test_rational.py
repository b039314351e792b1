"""rational.exact and the constructors and evaluators that take a caller's
numbers through it: an int, a Fraction or a str is the rational it names,
and a binary float or a bool is refused."""

from fractions import Fraction

import pytest

from ccckit import iet, rational
from ccckit import plhomeo as pl

from util import displacement_escalates

NOT_EXACT = [0.5, 0.1, 1.0, float("nan"), True, False]


@pytest.mark.parametrize("x,expected", [
    (3, Fraction(3)), (-2, Fraction(-2)), (Fraction(1, 3), Fraction(1, 3)),
    ("1/3", Fraction(1, 3)), ("0.1", Fraction(1, 10)), (" -3/4 ", Fraction(-3, 4)),
])
def test_exact_takes_ints_fractions_and_strs(x, expected):
    q = rational.exact(x)
    assert type(q) is Fraction and q == expected


@pytest.mark.parametrize("x", NOT_EXACT)
def test_exact_refuses_floats_and_bools(x):
    with pytest.raises(ValueError, match="exact rational"):
        rational.exact(x)


def test_over_common_den_refuses_a_float_among_exact_values():
    assert rational.over_common_den([1, "1/2", Fraction(1, 3)]) == (6, [6, 3, 2])
    with pytest.raises(ValueError, match="exact rational"):
        rational.over_common_den([1, 0.5])


# each boundary with valid exact arguments; a float in place of any one
# argument is refused
BOUNDARIES = {
    "pl.bump": (pl.bump, ("1/10", "1/2")),
    "pl.apply": (lambda x: pl.apply(pl.bump("1/4", "1/2"), x), ("3/8",)),
    "pl.displacement_witness": (pl.displacement_witness, ("1/4", "1/2")),
    "util.displacement_escalates": (
        lambda a, b: displacement_escalates(pl.displacement_witness("1/4", "1/2").t, a, b, 3),
        ("1/4", "1/2")),
    "pl.make_pl": (lambda x: pl.make_pl([(0, 0), (x, "1/2"), (1, 1)]), ("1/4",)),
    "iet.apply": (lambda x: iet.apply(iet.block_exchange(1), x), ("1/2",)),
    "iet.block_exchange": (iet.block_exchange, ("1/2",)),
    "iet.rotation": (iet.rotation, ("3/2", "1/2")),
    "iet.make_iet": (lambda x: iet.make_iet([0, x, 1], ["1/2", "-1/2"]), ("1/2",)),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_refuses_a_float_argument(name):
    build, args = BOUNDARIES[name]
    build(*args)
    for k in range(len(args)):
        for bad in (0.5, True):
            with pytest.raises(ValueError, match="exact rational"):
                build(*args[:k], bad, *args[k + 1:])


def test_bump_over_a_decimal_str_has_a_decimal_denominator():
    # the float 0.1 would give den 2^57
    f = pl.bump("0.1", "0.5")
    assert f == pl.bump(Fraction(1, 10), Fraction(1, 2))
    assert f.den == 10
    assert pl.apply(f, "0.3") == Fraction(2, 5)
