"""Increasing piecewise linear bijections of [0, 1] with rational vertices.

Compactly supported subgroups of these realize line homeomorphism groups in
a bounded exact model; the displacement witness t with t(a) > b drives the
disjoint-support argument checked by verify_displaced_supports, which also
checks that the displacement escalates, from the same orbit walk.

A ``PlMap`` stores one positive denominator ``den`` and integer vertex
numerators: vertex i is (xs[i] / den, ys[i] / den), in lowest terms
(``gcd(den, *xs, *ys) == 1``) and with no interior vertex collinear with
its neighbours, so equality is field equality.  Everything here does
only ``int`` arithmetic, on numerators over one denominator or on
(num, den) pairs.  The builders ``make_pl(den, xs, ys)``,
``bump(den, a, b)`` and ``displacement_witness(den, a, b, bound)`` read
each coordinate as a numerator over ``den``, and ``apply(f, n, d)`` takes
the point n/d; each refuses anything but a positive int denominator and
int numerators with ValueError before any arithmetic.  ``PlMap`` (whose
fields are tuples) and ``make_pl`` raise ValueError for malformed
vertices, one message per fault, as ``support_interval`` does for a
generator that is not compactly supported.  ``apply`` returns a reduced
(num, den) pair, and ``support_closure`` and ``support_interval`` a pair
of (num, den) pairs.  The orbit walk of ``verify_displaced_supports``
steps on pairs with ``apply``, compares them by cross-multiplying and
prints them through ``rational.fmt``, as rendering does.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm

from .core import (FamilyMismatchError, GeneratorSet, GroupFamily, Record, Witness, ZMode,
                   trusted, verify_czc, VerificationReport)
from .rational import (check_int_data, fmt, in_lowest_terms, is_int_data, less,
                       lowest_terms, ratio)


class PlMap(Record):
    def __init__(self, den: int, xs: tuple[int, ...], ys: tuple[int, ...]):
        # den: the positive common denominator; xs and ys: the vertex
        # numerators, 0 = xs[0] < ... < xs[-1] = den and likewise for ys
        self.__dict__.update(den=den, xs=xs, ys=ys)

    def __post_init__(self):
        den, xs, ys = self.den, self.xs, self.ys
        if not (isinstance(xs, tuple) and isinstance(ys, tuple)):
            raise ValueError(f"xs and ys must be tuples, got {xs!r} and {ys!r}")
        if not is_int_data(den, xs, ys):
            raise ValueError("need a positive int denominator and int numerators")
        _check_vertices(den, xs, ys)
        if _drop_collinear(xs, ys) != (xs, ys):
            raise ValueError(f"collinear interior vertex in {render_pl(self)}")
        if not in_lowest_terms(den, xs, ys):
            raise ValueError(f"not in lowest terms: denominator {den}")

    def __str__(self) -> str:
        return render_pl(self)


def _check_vertices(den, xs, ys) -> None:
    if (len(xs) < 2 or len(xs) != len(ys) or (xs[0], ys[0]) != (0, 0)
            or (xs[-1], ys[-1]) != (den, den)):
        raise ValueError("vertices must run from (0,0) to (1,1)")
    for x0, y0, x1, y1 in zip(xs, ys, xs[1:], ys[1:]):
        if x0 >= x1 or y0 >= y1:
            raise ValueError(f"vertices not strictly increasing near "
                             f"({fmt(x0, den)},{fmt(y0, den)})")


def _drop_collinear(xs, ys) -> tuple[tuple, tuple]:
    """The normal form: interior vertices collinear with their neighbours
    dropped.  The test is homogeneous, so any common denominator works."""
    ox: list[int] = []
    oy: list[int] = []
    for x, y in zip(xs, ys):
        while len(ox) >= 2 and (oy[-1] - oy[-2]) * (x - ox[-1]) == (y - oy[-1]) * (ox[-1] - ox[-2]):
            ox.pop()
            oy.pop()
        ox.append(x)
        oy.append(y)
    return tuple(ox), tuple(oy)


def make_pl(den: int, xs, ys) -> PlMap:
    """The PlMap with vertices (xs[i] / den, ys[i] / den): raw vertices
    checked, collinear vertices dropped, lowest terms."""
    check_int_data(den, xs, ys)
    _check_vertices(den, xs, ys)
    return PlMap(*lowest_terms(den, *_drop_collinear(xs, ys)))


IDENTITY = PlMap(1, (0, 1), (0, 1))


def apply(f: PlMap, n: int, d: int) -> tuple[int, int]:
    """f(n/d) for ints n and d > 0 as a reduced pair.  The point
    n/d * den = n * den / d lies on the segment that starts at the last
    vertex numerator below ceil(n * den / d), and the interpolation is put
    over d * den * (segment width): int arithmetic throughout."""
    check_int_data(d, (n,))
    if not 0 <= n <= d:
        raise ValueError(f"point {fmt(n, d)} outside [0, 1]")
    xs, ys, den = f.xs, f.ys, f.den
    u = n * den  # x * den = u / d
    i = max(bisect_left(xs, -(-u // d)), 1)  # xs[i - 1] <= u / d <= xs[i]
    x0, y0 = xs[i - 1], ys[i - 1]
    width = xs[i] - x0
    return ratio(y0 * width * d + (ys[i] - y0) * (u - x0 * d), width * d * den)


def inverse(f: PlMap) -> PlMap:
    # collinearity is symmetric in x and y, so the mirror is in normal form
    return trusted(PlMap, f.den, f.ys, f.xs)


def compose(f: PlMap, g: PlMap) -> PlMap:
    """Pointwise f o g in one sweep, with no inverse built: the breakpoints
    are g's plus the g-preimages of f's, merged in the order of g's values,
    and each new vertex is one linear interpolation on the current segment
    of the other map.  Both maps are rescaled to the lcm of their
    denominators, with no rescaling when the two are equal.  A vertex
    numerator is kept over that denominator times d, with d = 1 for a
    vertex of either map, and an interpolated one is divided by one gcd
    with its d where it is made; at the end every coordinate is put over
    den times the lcm of the d's."""
    den = f.den
    fx, fy, gx, gy = f.xs, f.ys, g.xs, g.ys
    if g.den != den:
        den = lcm(den, g.den)
        mf, mg = den // f.den, den // g.den
        if mf != 1:
            fx, fy = [x * mf for x in fx], [y * mf for y in fy]
        if mg != 1:
            gx, gy = [x * mg for x in gx], [y * mg for y in gy]
    xs, xd, ys, yd = [0], [1], [0], [1]  # numerators over den * d, and the d's
    j = 1  # fx[j - 1] <= y0 < fx[j] on g's segment from (x0, y0)
    for x0, y0, x1, y1 in zip(gx, gy, gx[1:], gy[1:]):
        while fx[j] < y1:  # f's vertices strictly inside g's image segment
            n, d = x0 * (y1 - y0) + (x1 - x0) * (fx[j] - y0), y1 - y0
            c = gcd(n, d)
            xs.append(n // c)
            xd.append(d // c)
            ys.append(fy[j])
            yd.append(1)
            j += 1
        xs.append(x1)
        xd.append(1)
        u0, v0, u1, v1 = fx[j - 1], fy[j - 1], fx[j], fy[j]
        if u1 == y1:
            ys.append(v1)
            yd.append(1)
            j += 1
        else:
            n, d = v0 * (u1 - u0) + (v1 - v0) * (y1 - u0), u1 - u0
            c = gcd(n, d)
            ys.append(n // c)
            yd.append(d // c)
    d_all = lcm(*xd, *yd)
    if d_all != 1:
        den *= d_all
        xs = [n * (d_all // d) for n, d in zip(xs, xd)]
        ys = [n * (d_all // d) for n, d in zip(ys, yd)]
    return trusted(PlMap, *lowest_terms(den, *_drop_collinear(xs, ys)))


def support_closure(f: PlMap) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Closure of {x : f(x) != x} as a pair of (num, den) pairs over f's
    den, or None for the identity."""
    moved = [i for i in range(len(f.xs) - 1)
             if not (f.xs[i] == f.ys[i] and f.xs[i + 1] == f.ys[i + 1])]
    if not moved:
        return None
    return (f.xs[moved[0]], f.den), (f.xs[moved[-1] + 1], f.den)


def support_interval(H: GeneratorSet) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Smallest closed interval containing all generator supports, as a
    pair of (num, den) pairs, or None when every generator is the identity.

    Raises ValueError when a generator moves points arbitrarily close to 0
    or 1.
    """
    lo, hi = None, None
    for h in H.elements:
        s = support_closure(h)
        if s is None:
            continue
        a, b = s
        if a[0] == 0 or b[0] == h.den:
            raise ValueError(
                f"generator support [{fmt(*a)}, {fmt(*b)}] touches the endpoints: {render_pl(h)}")
        lo = a if lo is None or less(a, lo) else lo
        hi = b if hi is None or less(hi, b) else hi
    if lo is None:
        return None
    return lo, hi


def displacement_witness(den: int, a: int, b: int, bound: int) -> Witness:
    """An increasing PL bijection t with t(a / den) > b / den, as a bounded
    Z-mode witness: t has the vertex (a, peak) with peak = (1 + b) / 2,
    strictly between b and 1, all over 2 * den.  Vertices are dyadic
    whenever a / den and b / den are."""
    check_int_data(den, (a, b))
    if not 0 < a <= b < den:
        raise ValueError(f"need 0 < a <= b < 1, got a={fmt(a, den)}, b={fmt(b, den)}")
    return Witness(make_pl(2 * den, [0, 2 * a, 2 * den], [0, den + b, 2 * den]), ZMode(bound))


def verify_displaced_supports(H: GeneratorSet, w: Witness) -> VerificationReport:
    """Run the algebraic bounded-commutation battery AND the geometric
    disjoint-support battery for the Z-mode witness w = (t, ZMode(P)), as
    displacement_witness builds it, and record whether they agree.

    The geometric battery walks the t-orbits of the support ends lo and hi
    once, to t^P(lo) and t^P(hi), and the same walk decides the
    displacement escalation t^p(lo) > t^(p-1)(hi) for 1 <= p <= P, recorded
    last as "[lo,hi]: displacement escalation".  A trivial H has no
    support, and neither walk nor escalation record."""
    report = VerificationReport("pl-displaced-supports", bounded=True)
    algebraic = verify_czc(H, w, suite="pl-algebraic")
    report.extend(algebraic)
    t, P = w.t, w.mode.bound

    supp = support_interval(H)  # (num, den) pairs, as every point of the walk
    geometric_ok = True
    escalates = []
    if supp is not None:
        lo, hi = supp
        x, y = lo, hi
        for p in range(1, P + 1):
            x = apply(t, *x)
            escalates.append(less(y, x))  # t^p(lo) > t^(p-1)(hi)
            y = apply(t, *y)  # [x, y] is now the t^p image of the support interval
            disjoint = less(hi, x) or less(y, lo)
            geometric_ok = geometric_ok and disjoint
            report.record(
                f"supp(^(t^{p})H) disjoint from supp(H)", disjoint,
                f"[{fmt(*x)}, {fmt(*y)}]", f"outside [{fmt(*lo)}, {fmt(*hi)}]",
                detail=f"bounded check, p <= {P}")
    report.record("algebraic and geometric verdicts agree",
                  algebraic.passed == geometric_ok,
                  "algebraic " + ("pass" if algebraic.passed else "fail"),
                  "geometric " + ("pass" if geometric_ok else "fail"))
    if supp is not None:
        report.record(f"[{fmt(*lo)},{fmt(*hi)}]: displacement escalation", all(escalates),
                      " ".join("ok" if e else "fail" for e in escalates), "all ok")
    return report


def render_pl(f: PlMap) -> str:
    return " ".join(f"({fmt(x, f.den)},{fmt(y, f.den)})" for x, y in zip(f.xs, f.ys))


class PlFamily(GroupFamily):
    name = "pl"

    def check_element(self, a):
        if not isinstance(a, PlMap):
            raise FamilyMismatchError(f"not a PlMap: {a!r}")

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
        self.check_element(a)
        return render_pl(a)

    def __reduce__(self):
        # the one instance: a copy or pickle of PL is PL itself
        return "PL"


PL = PlFamily()


def bump(den: int, a: int, b: int) -> PlMap:
    """A map supported exactly on [a / den, b / den]: sends the midpoint m
    to (m + b) / 2, identity outside.  The vertex (m, (m + b) / 2) with
    m = (a + b) / 2 is (2(a + b), a + 3b) over 4 * den."""
    check_int_data(den, (a, b))
    if not 0 < a < b < den:
        raise ValueError(f"need 0 < a < b < 1, got {fmt(a, den)}, {fmt(b, den)}")
    return make_pl(4 * den, [0, 4 * a, 2 * (a + b), 4 * b, 4 * den],
                    [0, 4 * a, a + 3 * b, 4 * b, 4 * den])
