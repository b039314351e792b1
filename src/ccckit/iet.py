"""Interval exchange transformations of [0, oo) with exact rational data.

A map is a finite list of half-open intervals [a_(j-1), a_j) with rational
translations, fixing the infinite tail [a_k, oo) pointwise.  The normal
form merges adjacent intervals with equal translation and absorbs trailing
identity intervals into the tail, so functional equality is normal form
equality.

An ``IetMap`` stores one positive denominator ``den`` and integer
numerators: a_j = cuts[j] / den and the translations shifts[j] / den, in
lowest terms (``gcd(den, *cuts, *shifts) == 1``), so normal form plus
lowest terms makes equality field equality.  Everything here does only
``int`` arithmetic.  Each builder (``make_iet``, ``block_exchange``,
``rotation``) and ``apply`` is a thin public wrapper over a private core
on int numerators over one denominator, and the batteries call the
cores.  A wrapper takes a caller's numbers through ``rational.num_den``
(an int as it is, a str or a ``Fraction`` through ``rational.exact``,
which refuses a binary float rather than take its power-of-two value).
``Fraction`` appears only in what ``apply`` and the read-only
``breakpoints``/``translations``/``bound`` properties return, built by
``rational.as_fraction``, which imports ``fractions`` on first use, so no
battery loads it.  Rendering prints exactly what ``str(Fraction)``
prints, from ints.

The public constructors (``IetMap(...)`` and ``make_iet``) validate: the
raw breakpoints start at 0 and ascend strictly, the translated intervals
partition [0, a_k) exactly, and an ``IetMap`` is in normal form and lowest
terms.  ``compose`` and ``inverse`` take valid maps
to valid maps, so they build their results without re-validation.
``compose`` is one sweep over the intervals of its right factor and builds
no inverse.
"""

from __future__ import annotations

from bisect import bisect_right

from .core import CcckitError, FamilyMismatchError, GroupFamily, Record, trusted
from .rational import (as_fraction, common_den, fmt, in_lowest_terms, is_int_data,
                       lowest_terms, num_den, over_common_den, ratio, rescaled)


class InvalidIetError(CcckitError):
    pass


class IetMap(Record):
    def __init__(self, den: int, cuts: tuple[int, ...], shifts: tuple[int, ...]):
        # den: the positive common denominator; cuts: numerators of
        # 0 = a_0 < a_1 < ... < a_k; shifts: numerators of the translations,
        # one per finite interval
        self.__dict__.update(den=den, cuts=cuts, shifts=shifts)

    def __post_init__(self):
        den, cuts, shifts = self.den, self.cuts, self.shifts
        if not is_int_data(den, cuts, shifts):
            raise InvalidIetError("need a positive int denominator and int numerators")
        _check_intervals(den, cuts, shifts)
        cursor = 0
        for lo, hi in sorted((a + t, b + t) for a, b, t in zip(cuts, cuts[1:], shifts)):
            if lo != cursor:
                raise InvalidIetError(f"translated intervals do not partition "
                                      f"[0, {fmt(cuts[-1], den)}): gap/overlap at {fmt(lo, den)}")
            cursor = hi
        if cursor != cuts[-1]:
            raise InvalidIetError(f"translated intervals cover up to {fmt(cursor, den)}, "
                                  f"expected {fmt(cuts[-1], den)}")
        if _normal_form(cuts, shifts) != (cuts, shifts):
            raise InvalidIetError("not in normal form: equal adjacent translations "
                                  "or a trailing identity interval")
        if not in_lowest_terms(den, cuts, shifts):
            raise InvalidIetError(f"not in lowest terms: denominator {den}")

    @property
    def breakpoints(self) -> tuple:
        return tuple(as_fraction(c, self.den) for c in self.cuts)

    @property
    def translations(self) -> tuple:
        return tuple(as_fraction(t, self.den) for t in self.shifts)

    @property
    def bound(self):
        return as_fraction(self.cuts[-1], self.den)

    def __str__(self) -> str:
        return render_iet(self)


def _check_intervals(den, cuts, shifts) -> None:
    if not cuts or cuts[0] != 0:
        raise InvalidIetError("breakpoints must start at 0")
    if len(shifts) != len(cuts) - 1:
        raise InvalidIetError("need one translation per finite interval")
    if any(b >= c for b, c in zip(cuts, cuts[1:])):
        raise InvalidIetError("breakpoints not strictly ascending: "
                              + ", ".join(fmt(c, den) for c in cuts))


def _normal_form(cuts, shifts) -> tuple[tuple, tuple]:
    """Merge equal adjacent translations; absorb trailing identity intervals."""
    bps = [cuts[0]]
    ts: list[int] = []
    for b, t in zip(cuts[1:], shifts):
        if ts and ts[-1] == t:
            bps[-1] = b
        else:
            bps.append(b)
            ts.append(t)
    while ts and ts[-1] == 0:
        ts.pop()
        bps.pop()
    return tuple(bps), tuple(ts)


def _reduced(den: int, cuts, shifts) -> tuple:
    """Normal form, then lowest terms: the fields of a valid IetMap."""
    return lowest_terms(den, *_normal_form(cuts, shifts))


def make_iet(breakpoints, translations) -> IetMap:
    """Normalize raw rational interval data into an IetMap."""
    bps, ts = list(breakpoints), list(translations)
    den, nums = over_common_den(bps + ts)
    return _make_iet(den, nums[:len(bps)], nums[len(bps):])


def _make_iet(den: int, cuts, shifts) -> IetMap:
    """make_iet on int numerators over den > 0; the raw breakpoints are
    checked first, so normalising cannot hide malformed input."""
    _check_intervals(den, cuts, shifts)
    return IetMap(*_reduced(den, cuts, shifts))


IDENTITY = IetMap(1, (0,), ())


def apply(f: IetMap, x):
    """f(x) for x >= 0 given as in rational.num_den, as a Fraction."""
    return as_fraction(*_apply(f, *num_den(x)))


def _apply(f: IetMap, n: int, d: int) -> tuple[int, int]:
    """f(n/d) for d > 0 as a reduced pair.  The cuts are ints, so
    c <= n * den / d exactly when c <= floor(n * den / d)."""
    if n < 0:
        raise ValueError(f"point must be >= 0, got {fmt(n, d)}")
    j = bisect_right(f.cuts, n * f.den // d)  # n/d lies in interval j - 1, or in the tail
    return ratio(n * f.den + f.shifts[j - 1] * d, d * f.den) if j < len(f.cuts) else (n, d)


def inverse(f: IetMap) -> IetMap:
    pieces = sorted((a + t, b + t, -t) for a, b, t in zip(f.cuts, f.cuts[1:], f.shifts))
    return trusted(IetMap, *_reduced(f.den, [0] + [hi for _, hi, _ in pieces],
                                     [t for _, _, t in pieces]))


def compose(f: IetMap, g: IetMap) -> IetMap:
    """Pointwise f o g, exact, in one sweep over g's intervals in domain
    order (and [g.bound, f.bound) with translation 0 when f reaches
    further), with both maps rescaled to the lcm of their denominators.
    Each interval [a, b) with translation s is cut at the preimages c - s of
    f's breakpoints c inside its image, found from one bisect; f.bound is
    one of them, since f's tail has translation 0."""
    den, mf, mg = common_den(f.den, g.den)
    fb, ft = rescaled(f.cuts, mf), rescaled(f.shifts, mf)
    gb, gt = rescaled(g.cuts, mg), rescaled(g.shifts, mg)
    pieces = list(zip(gb, gb[1:], gt))
    if fb[-1] > gb[-1]:
        pieces.append((gb[-1], fb[-1], 0))
    bps, ts = [0], []
    for a, b, s in pieces:
        j = bisect_right(fb, a + s)  # a + s lies in f's interval j - 1
        while j < len(fb) and fb[j] < b + s:
            bps.append(fb[j] - s)
            ts.append(s + ft[j - 1])
            j += 1
        bps.append(b)
        ts.append(s + ft[j - 1] if j < len(fb) else s)
    return trusted(IetMap, *_reduced(den, bps, ts))


def block_exchange(n) -> IetMap:
    """Exchange [0, n) with [n, 2n); an involution."""
    n, den = num_den(n)
    return _block_exchange(den, n)


def _block_exchange(den: int, n: int) -> IetMap:
    """block_exchange(n / den), den > 0."""
    if n <= 0:
        raise ValueError(f"block length must be > 0, got {fmt(n, den)}")
    return _make_iet(den, [0, n, 2 * n], [n, -n])


def rotation(length, amount) -> IetMap:
    """Rotation of [0, length) by amount (mod length), identity beyond."""
    den, (length, amount) = over_common_den([length, amount])
    return _rotation(den, length, amount)


def _rotation(den: int, length: int, amount: int) -> IetMap:
    """rotation(length / den, amount / den), den > 0."""
    if length <= 0:
        raise ValueError(f"block length must be > 0, got {fmt(length, den)}")
    amount %= length
    if amount == 0:
        return IDENTITY
    return _make_iet(den, [0, length - amount, length], [amount, amount - length])


def render_iet(f: IetMap) -> str:
    if not f.shifts:
        return "id"
    den = f.den
    return "; ".join(f"[{fmt(a, den)},{fmt(b, den)}) -> {'+' if t >= 0 else ''}{fmt(t, den)}"
                     for a, b, t in zip(f.cuts, f.cuts[1:], f.shifts))


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

    def support(self, a):
        """The intervals with a nonzero translation, over a's own den."""
        self.check_element(a)
        return a.den, tuple((lo, hi) for lo, hi, t in zip(a.cuts, a.cuts[1:], a.shifts) if t)

    def render(self, a):
        self.check_element(a)
        return render_iet(a)

    def __reduce__(self):
        # the one instance: a copy or pickle of IET is IET itself
        return "IET"


IET = IetFamily()
