"""Interval exchange transformations of [0, oo) with exact rational data.

A map is a finite list of half-open intervals [a_(j-1), a_j) with rational
translations, fixing the infinite tail [a_k, oo) pointwise.  The normal
form merges adjacent intervals with equal translation and absorbs trailing
identity intervals into the tail, so functional equality is normal form
equality.

The public constructors (``IetMap(...)``, ``make_iet``, ``from_json_obj``)
validate: the raw breakpoints start at 0 and ascend strictly, the
translated intervals partition [0, a_k) exactly, and an ``IetMap`` equals
its normal form.  ``compose`` and ``inverse`` take valid maps to valid
maps, so they build their results from the normal form without
re-validation.  ``compose`` is one sweep over the intervals of its right
factor and builds no inverse.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import CcckitError, FamilyMismatchError, GroupFamily, Witness, Finite, trusted


class InvalidIetError(CcckitError):
    pass


@dataclass(frozen=True)
class IetMap:
    breakpoints: tuple[Fraction, ...]   # 0 = a_0 < a_1 < ... < a_k
    translations: tuple[Fraction, ...]  # one per finite interval

    def __post_init__(self):
        bps, ts = self.breakpoints, self.translations
        _check_intervals(bps, ts)
        cursor = Fraction(0)
        for lo, hi in sorted((a + t, b + t) for a, b, t in zip(bps, bps[1:], ts)):
            if lo != cursor:
                raise InvalidIetError(f"translated intervals do not partition "
                                      f"[0, {bps[-1]}): gap/overlap at {lo}")
            cursor = hi
        if cursor != bps[-1]:
            raise InvalidIetError(f"translated intervals cover up to {cursor}, expected {bps[-1]}")
        if _normal_form(bps, ts) != (bps, ts):
            raise InvalidIetError("not in normal form: equal adjacent translations "
                                  "or a trailing identity interval")

    @property
    def bound(self) -> Fraction:
        return self.breakpoints[-1]

    def __str__(self) -> str:
        return render_iet(self)


def _check_intervals(breakpoints, translations) -> None:
    if not breakpoints or breakpoints[0] != 0:
        raise InvalidIetError("breakpoints must start at 0")
    if len(translations) != len(breakpoints) - 1:
        raise InvalidIetError("need one translation per finite interval")
    if any(b >= c for b, c in zip(breakpoints, breakpoints[1:])):
        raise InvalidIetError(f"breakpoints not strictly ascending: {breakpoints}")


def _normal_form(breakpoints, translations) -> tuple[tuple, tuple]:
    """Merge equal adjacent translations; absorb trailing identity intervals."""
    bps = [breakpoints[0]]
    ts: list[Fraction] = []
    for b, t in zip(breakpoints[1:], translations):
        if ts and ts[-1] == t:
            bps[-1] = b
        else:
            bps.append(b)
            ts.append(t)
    while ts and ts[-1] == 0:
        ts.pop()
        bps.pop()
    return tuple(bps), tuple(ts)


def make_iet(breakpoints, translations) -> IetMap:
    """Normalize raw interval data into an IetMap; the raw breakpoints are
    checked first, so normalising cannot hide malformed input."""
    bps = [Fraction(b) for b in breakpoints]
    ts = [Fraction(t) for t in translations]
    _check_intervals(bps, ts)
    return IetMap(*_normal_form(bps, ts))


IDENTITY = IetMap((Fraction(0),), ())


def apply(f: IetMap, x) -> Fraction:
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"point must be >= 0, got {x}")
    return x + _translation_at(f, x)


def _translation_at(f: IetMap, x: Fraction) -> Fraction:
    for a, b, t in zip(f.breakpoints, f.breakpoints[1:], f.translations):
        if a <= x < b:
            return t
    return Fraction(0)


def inverse(f: IetMap) -> IetMap:
    pieces = sorted(
        (a + t, b + t, -t) for a, b, t in zip(f.breakpoints, f.breakpoints[1:], f.translations))
    return trusted(IetMap, *_normal_form([Fraction(0)] + [hi for _, hi, _ in pieces],
                                         [t for _, _, t in pieces]))


def compose(f: IetMap, g: IetMap) -> IetMap:
    """Pointwise f o g, exact, in one sweep over g's intervals in domain
    order (and [g.bound, f.bound) with translation 0 when f reaches
    further).  Each interval [a, b) with translation s is cut at the
    preimages c - s of f's breakpoints c inside its image, found from one
    bisect; f.bound is one of them, since f's tail has translation 0."""
    fb, ft = f.breakpoints, f.translations
    pieces = list(zip(g.breakpoints, g.breakpoints[1:], g.translations))
    if f.bound > g.bound:
        pieces.append((g.bound, f.bound, Fraction(0)))
    bps, ts = [Fraction(0)], []
    for a, b, s in pieces:
        j = bisect_right(fb, a + s)  # a + s lies in f's interval j - 1
        while j < len(fb) and fb[j] < b + s:
            bps.append(fb[j] - s)
            ts.append(s + ft[j - 1])
            j += 1
        bps.append(b)
        ts.append(s + ft[j - 1] if j < len(fb) else s)
    return trusted(IetMap, *_normal_form(bps, ts))


def block_exchange(n) -> IetMap:
    """Exchange [0, n) with [n, 2n); an involution."""
    n = Fraction(n)
    if n <= 0:
        raise ValueError(f"block length must be > 0, got {n}")
    return make_iet([0, n, 2 * n], [n, -n])


def block_exchange_witness(n) -> Witness:
    return Witness(block_exchange(n), Finite(2))


def rotation(length, amount) -> IetMap:
    """Rotation of [0, length) by amount (mod length), identity beyond."""
    length, amount = Fraction(length), Fraction(amount) % Fraction(length)
    if amount == 0:
        return IDENTITY
    return make_iet([0, length - amount, length], [amount, amount - length])


def support_bound(f: IetMap) -> Fraction:
    """Least N with f = id on [N, oo); read off the normal form."""
    return f.bound


def interval_lengths(f: IetMap) -> list[Fraction]:
    return [b - a for a, b in zip(f.breakpoints, f.breakpoints[1:])]


def render_iet(f: IetMap) -> str:
    if not f.translations:
        return "id"
    parts = [f"[{a},{b}) -> +{t}" if t >= 0 else f"[{a},{b}) -> {t}"
             for a, b, t in zip(f.breakpoints, f.breakpoints[1:], f.translations)]
    return "; ".join(parts)


def to_json_obj(f: IetMap) -> dict:
    return {
        "breakpoints": [str(b) for b in f.breakpoints],
        "translations": [str(t) for t in f.translations],
    }


def from_json_obj(obj: dict) -> IetMap:
    return make_iet([Fraction(b) for b in obj["breakpoints"]],
                    [Fraction(t) for t in obj["translations"]])


class IetFamily(GroupFamily):
    name = "iet"

    def check_element(self, a):
        if not isinstance(a, IetMap):
            raise FamilyMismatchError(f"not an IetMap: {a!r}")

    def identity(self):
        return IDENTITY

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return compose(a, b)

    def inv(self, a):
        self.check_element(a)
        return inverse(a)

    def eq(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return a == b

    def render(self, a):
        return render_iet(a)


IET = IetFamily()
