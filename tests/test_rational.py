"""rational.fmt, and the int boundary of the iet and plhomeo builders and
of plhomeo.apply: each takes a positive int denominator and int
numerators, and refuses anything else with ValueError before any
arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ccckit import iet, rational
from ccckit import plhomeo as pl

# name -> (call, valid int arguments, position of the denominator).  A bad
# value in a cut, shift or vertex position sits inside the list the
# builder gets.  rotation(3, 3, 3) is the identity, so with den 1.5 it is
# rotation(1.5, 3, 3), which once returned IDENTITY without a check.
BOUNDARIES = {
    "iet.block_exchange": (iet.block_exchange, (2, 1), 0),
    "iet.make_iet": (lambda den, c, s: iet.make_iet(den, [0, c, 2], [s, -1]), (2, 1, 1), 0),
    "iet.rotation": (iet.rotation, (3, 3, 3), 0),
    "pl.apply": (lambda n, d: pl.apply(pl.bump(4, 1, 2), n, d), (3, 8), 1),
    "pl.bump": (pl.bump, (8, 1, 4), 0),
    "pl.displacement_witness": (lambda den, a, b: pl.displacement_witness(den, a, b, 4),
                                (4, 1, 2), 0),
    "pl.make_pl": (lambda den, x, y: pl.make_pl(den, [0, x, 4], [0, y, 4]), (4, 2, 3), 0),
}
NOT_INTS = [True, False, 0.5, 1.0, 1.5, "1", Fraction(1, 2), Fraction(1)]


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_refuses_a_float_argument(name):
    """Each argument in turn given as a bool, a float, a str or a Fraction,
    and the denominator given as 0 or -1, raises ValueError."""
    build, args, den = BOUNDARIES[name]
    build(*args)
    for k in range(len(args)):
        for bad in NOT_INTS:
            with pytest.raises(ValueError, match="positive int denominator and int numerators"):
                build(*args[:k], bad, *args[k + 1:])
    for bad in (0, -1):
        with pytest.raises(ValueError, match="positive int denominator and int numerators"):
            build(*args[:den], bad, *args[den + 1:])


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
