"""rational.exact, num_den and fmt, and the constructors and evaluators
that take a caller's numbers through them: an int, a Fraction or a str is
the rational it names, a binary float or a bool is refused, and what the
boundary returns is a Fraction."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ccckit import iet, rational
from ccckit import plhomeo as pl
from ccckit.core import GeneratorSet

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


WORDS = st.integers(min_value=-2 ** 200, max_value=2 ** 200)  # multi-word ints


@settings(max_examples=500)
@given(st.integers() | WORDS, st.integers(min_value=1) | WORDS.filter(lambda d: d >= 1))
@example(0, 1)
@example(-6, 4)
@example(-(2 ** 130) * 3, 2 ** 129)
def test_fmt_prints_what_str_of_a_fraction_prints(n, d):
    # pl's [x, y] and outside [lo, hi] records, its escalation names and
    # iet's "block L: " labels print through fmt
    assert rational.fmt(n, d) == str(Fraction(n, d))


@pytest.mark.parametrize("x,expected", [
    (3, (3, 1)), (-2, (-2, 1)), (0, (0, 1)), (Fraction(6, 4), (3, 2)), ("-2/6", (-1, 3)),
    ("0.1", (1, 10)),
])
def test_num_den_gives_a_reduced_pair(x, expected):
    assert rational.num_den(x) == expected


# each builder with exact arguments; an int-valued argument may come as an
# int, a Fraction or a str, and any other as a Fraction or a str
BUILDERS = {
    "iet.rotation": (iet.rotation, [(3, 1), (Fraction(3, 2), Fraction(1, 2)), (2, Fraction(7, 3))]),
    "iet.block_exchange": (iet.block_exchange, [(2,), (Fraction(3, 4),)]),
    "iet.make_iet": (lambda a, b, s, t: iet.make_iet([0, a, b], [s, t]),
                     [(1, 3, 2, -1), (Fraction(1, 2), Fraction(3, 2), 1, Fraction(-1, 2))]),
    "pl.bump": (pl.bump, [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(3, 5))]),
    "pl.displacement_witness": (pl.displacement_witness, [(Fraction(1, 8), Fraction(1, 4)),
                                                          (Fraction(1, 3), Fraction(1, 3))]),
    "pl.make_pl": (lambda x, y, one: pl.make_pl([(0, 0), (x, y), (one, one)]),
                   [(Fraction(1, 4), Fraction(1, 2), 1)]),
}
FORMS = {
    "int": lambda q: int(q) if Fraction(q).denominator == 1 else Fraction(q),
    "Fraction": Fraction,
    "str": str,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_take_ints_fractions_and_strs_alike(name):
    build, cases = BUILDERS[name]
    for args in cases:
        built = {form: build(*map(convert, args)) for form, convert in FORMS.items()}
        assert built["int"] == built["Fraction"] == built["str"], (args, built)
        # and a mix: each argument in another form
        forms = list(FORMS.values())
        assert build(*(forms[k % 3](q) for k, q in enumerate(args))) == built["int"]


def test_the_boundary_returns_fractions():
    r, b = iet.rotation(3, 1), iet.block_exchange(Fraction(3, 2))
    f = pl.bump("1/4", "1/2")
    values = [iet.apply(r, 0), iet.apply(r, "5/2"), iet.apply(r, 7), *b.breakpoints,
              *b.translations, b.bound, pl.apply(f, "3/8"), pl.apply(f, 0),
              *pl.support_closure(f), *pl.support_interval(GeneratorSet(pl.PL, (f,))),
              *(c for v in f.vertices for c in v)]
    assert all(type(v) is Fraction for v in values), values
    assert values[:3] == [1, Fraction(1, 2), 7]
    assert (b.breakpoints, b.translations, b.bound) == ((0, Fraction(3, 2), 3),
                                                        (Fraction(3, 2), Fraction(-3, 2)), 3)
    assert values[9:15] == [Fraction(7, 16), 0, Fraction(1, 4), Fraction(1, 2),
                            Fraction(1, 4), Fraction(1, 2)]
