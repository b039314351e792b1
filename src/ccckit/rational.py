"""Exact rationals as integer numerators over one shared denominator.

``IetMap`` and ``PlMap`` store one positive denominator and integer
numerators, in lowest terms (the gcd of the denominator and all numerators
is 1), so their kernels do only ``int`` arithmetic.  A caller builds them
the same way, from an int denominator and int numerators, which
``check_int_data`` checks before any arithmetic.  These helpers are that
check and the rescale, reduce, compare and format steps the kernels share.
"""

from __future__ import annotations

from math import gcd, lcm


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


def is_int_data(den, *numerators) -> bool:
    """A positive int denominator and sequences of int numerators: no
    bool, float, str or other rational type."""
    return type(den) is int and den > 0 and all(type(x) is int for xs in numerators for x in xs)


def check_int_data(den, *numerators) -> None:
    """Raise ValueError unless ``is_int_data(den, *numerators)``."""
    if not is_int_data(den, *numerators):
        raise ValueError(f"need a positive int denominator and int numerators, "
                         f"got {den!r} and {', '.join(map(repr, numerators))}")


def in_lowest_terms(den: int, xs, ys) -> bool:
    return gcd(den, *xs, *ys) == 1


def fmt(num: int, den: int) -> str:
    """num/den for den > 0 in lowest terms, as "n/d", or as the integer
    alone when it has denominator 1."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
