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
``int`` arithmetic, and the builders take their data the same way:
``make_iet(den, cuts, shifts)``, ``block_exchange(den, n)`` and
``rotation(den, length, amount)`` read every length as a numerator over
``den``, and refuse anything but a positive int ``den`` and int
numerators with ValueError before any arithmetic.  Rendering prints each
rational as "n/d" in lowest terms, through ``rational.fmt``.

The public constructors (``IetMap(...)`` and ``make_iet``) validate, and
raise ValueError with one message per fault: the raw breakpoints start at
0 and ascend strictly, the translated intervals partition [0, a_k)
exactly, and an ``IetMap`` has tuple fields in normal form and lowest
terms.  ``compose`` and ``inverse`` take valid maps to valid maps, so
they build their results without re-validation.
``compose`` is one sweep over the intervals of its right factor and builds
no inverse.
"""

from __future__ import annotations

from bisect import bisect_right

from .core import FamilyMismatchError, GroupFamily, Record, trusted
from .rational import (check_int_data, common_den, fmt, in_lowest_terms, is_int_data,
                       lowest_terms, rescaled)


class IetMap(Record):
    def __init__(self, den: int, cuts: tuple[int, ...], shifts: tuple[int, ...]):
        # den: the positive common denominator; cuts: numerators of
        # 0 = a_0 < a_1 < ... < a_k; shifts: numerators of the translations,
        # one per finite interval
        self.__dict__.update(den=den, cuts=cuts, shifts=shifts)

    def __post_init__(self):
        den, cuts, shifts = self.den, self.cuts, self.shifts
        if not (isinstance(cuts, tuple) and isinstance(shifts, tuple)):
            raise ValueError(f"cuts and shifts must be tuples, got {cuts!r} and {shifts!r}")
        if not is_int_data(den, cuts, shifts):
            raise ValueError("need a positive int denominator and int numerators")
        _check_intervals(den, cuts, shifts)
        cursor = 0
        for lo, hi in sorted((a + t, b + t) for a, b, t in zip(cuts, cuts[1:], shifts)):
            if lo != cursor:
                raise ValueError(f"translated intervals do not partition "
                                 f"[0, {fmt(cuts[-1], den)}): gap/overlap at {fmt(lo, den)}")
            cursor = hi
        if cursor != cuts[-1]:
            raise ValueError(f"translated intervals cover up to {fmt(cursor, den)}, "
                             f"expected {fmt(cuts[-1], den)}")
        if _normal_form(cuts, shifts) != (cuts, shifts):
            raise ValueError("not in normal form: equal adjacent translations "
                             "or a trailing identity interval")
        if not in_lowest_terms(den, cuts, shifts):
            raise ValueError(f"not in lowest terms: denominator {den}")

    def __str__(self) -> str:
        return render_iet(self)


def _check_intervals(den, cuts, shifts) -> None:
    if not cuts or cuts[0] != 0:
        raise ValueError("breakpoints must start at 0")
    if len(shifts) != len(cuts) - 1:
        raise ValueError("need one translation per finite interval")
    if any(b >= c for b, c in zip(cuts, cuts[1:])):
        raise ValueError("breakpoints not strictly ascending: "
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


def make_iet(den: int, cuts, shifts) -> IetMap:
    """The IetMap with breakpoints cuts[j] / den and translations
    shifts[j] / den, normalised; the raw breakpoints are checked first, so
    normalising cannot hide malformed input."""
    check_int_data(den, cuts, shifts)
    _check_intervals(den, cuts, shifts)
    return IetMap(*_reduced(den, cuts, shifts))


IDENTITY = IetMap(1, (0,), ())


def inverse(f: IetMap) -> IetMap:
    pieces = sorted((a + t, b + t, -t) for a, b, t in zip(f.cuts, f.cuts[1:], f.shifts))
    return trusted(IetMap, *_reduced(f.den, [0] + [hi for _, hi, _ in pieces],
                                     [t for _, _, t in pieces]))


def compose(f: IetMap, g: IetMap) -> IetMap:
    """Pointwise f o g, exact, in one sweep over g's intervals in domain
    order (and the interval from g's last breakpoint to f's, with
    translation 0, when f reaches further), with both maps rescaled to the
    lcm of their denominators.  Each interval [a, b) with translation s is
    cut at the preimages c - s of f's breakpoints c inside its image, found
    from one bisect; f's last breakpoint is one of them, since f's tail has
    translation 0."""
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


def block_exchange(den: int, n: int) -> IetMap:
    """Exchange [0, L) with [L, 2L), L = n / den; an involution."""
    check_int_data(den, (n,))
    if n <= 0:
        raise ValueError(f"block length must be > 0, got {fmt(n, den)}")
    return make_iet(den, [0, n, 2 * n], [n, -n])


def rotation(den: int, length: int, amount: int) -> IetMap:
    """Rotation of [0, length / den) by amount / den (mod the length),
    identity beyond."""
    check_int_data(den, (length, amount))
    if length <= 0:
        raise ValueError(f"block length must be > 0, got {fmt(length, den)}")
    amount %= length
    if amount == 0:
        return IDENTITY
    return make_iet(den, [0, length - amount, length], [amount, amount - length])


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
