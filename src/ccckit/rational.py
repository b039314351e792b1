"""Exact rationals as integer numerators over one shared denominator.

``IetMap`` and ``PlMap`` store one positive denominator and integer
numerators, in lowest terms (the gcd of the denominator and all numerators
is 1), so their kernels do only ``int`` arithmetic.  These helpers are the
boundary between that representation and a caller's numbers, plus the
rescale, reduce, compare and format steps the kernels share.  ``num_den``
is the one way a caller's number becomes a (num, den) pair: an int is
``(x, 1)`` at once, and anything else goes through ``exact``, which
refuses binary floats.  This is the only module that names ``fractions``,
and it imports it on first use: in ``exact`` (a str or a ``Fraction``
argument) and in ``as_fraction`` (a public return value), so a process
that runs only the batteries, which build their maps from int numerators,
never loads it.
"""

from __future__ import annotations

from math import gcd, lcm


def exact(x):
    """x as a Fraction, for an int, a Fraction or a str such as "1/3" or
    "0.1".  A float or bool raises ValueError: a binary float is not the
    decimal it prints (0.1 is 3602879701896397 / 2^55), so it would build a
    map over a power-of-two denominator the caller never meant.  A
    Fraction comes back as it is, with no copy."""
    from fractions import Fraction

    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise ValueError(f"need an exact rational (int, Fraction or str), got {x!r}")
    return Fraction(x)


def num_den(x) -> tuple[int, int]:
    """x as a reduced pair (num, den), den > 0, taken as in ``exact``; an
    int is (x, 1), with no Fraction built."""
    if type(x) is int:
        return x, 1
    q = exact(x)
    return q.numerator, q.denominator


def as_fraction(num: int, den: int):
    """num/den (den != 0) as a Fraction, for the public return values."""
    from fractions import Fraction

    return Fraction(num, den)


def over_common_den(values) -> tuple[int, list[int]]:
    """Rationals as (den, numerators), den the lcm of their denominators;
    each value goes through ``num_den``."""
    pairs = [num_den(v) for v in values]
    den = lcm(*(d for _, d in pairs))
    return den, [n * (den // d) for n, d in pairs]


def common_den(den_a: int, den_b: int) -> tuple[int, int, int]:
    """lcm(den_a, den_b) and the factors that rescale each side to it."""
    den = lcm(den_a, den_b)
    return den, den // den_a, den // den_b


def rescaled(nums, factor: int):
    return nums if factor == 1 else [x * factor for x in nums]


def ratio(num: int, den: int) -> tuple[int, int]:
    """num/den (den > 0) as a reduced pair."""
    g = gcd(num, den)
    return num // g, den // g


def lowest_terms(den: int, xs, ys) -> tuple[int, tuple, tuple]:
    """(den, xs, ys) divided through by their gcd, as tuples."""
    g = gcd(den, *xs, *ys) if den != 1 else 1
    if g == 1:
        return den, tuple(xs), tuple(ys)
    return den // g, tuple([x // g for x in xs]), tuple([y // g for y in ys])


def less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for (num, den) pairs with den > 0, by cross-multiplying."""
    return a[0] * b[1] < b[0] * a[1]


def is_int_data(den, xs, ys) -> bool:
    """A positive int denominator and int numerators (no bools, no Fractions)."""
    return (type(den) is int and den > 0
            and all(type(x) is int for x in xs) and all(type(y) is int for y in ys))


def in_lowest_terms(den: int, xs, ys) -> bool:
    return gcd(den, *xs, *ys) == 1


def fmt(num: int, den: int) -> str:
    """What ``str(Fraction(num, den))`` prints, for den > 0."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
