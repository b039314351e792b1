"""Increasing piecewise linear bijections of [0, 1] with rational vertices.

Compactly supported subgroups of these realize line homeomorphism groups in
a bounded exact model; the displacement witness t with t(a) > b drives the
disjoint-support argument checked by verify_displaced_supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (CcckitError, FamilyMismatchError, GeneratorSet, GroupFamily,
                   Witness, ZMode, trusted, verify_czc,
                   VerificationReport)


class InvalidPlMapError(CcckitError):
    pass


class NotCompactlySupportedError(CcckitError):
    pass


@dataclass(frozen=True)
class PlMap:
    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        _check_vertices(self.vertices)
        if _drop_collinear(self.vertices) != self.vertices:
            raise InvalidPlMapError(f"collinear interior vertex in {render_pl(self)}")

    def __str__(self) -> str:
        return render_pl(self)


def _check_vertices(v) -> None:
    if len(v) < 2 or v[0] != (0, 0) or v[-1] != (1, 1):
        raise InvalidPlMapError("vertices must run from (0,0) to (1,1)")
    for (x0, y0), (x1, y1) in zip(v, v[1:]):
        if x0 >= x1 or y0 >= y1:
            raise InvalidPlMapError(f"vertices not strictly increasing near ({x0},{y0})")


def _drop_collinear(vertices) -> tuple:
    """The normal form: interior vertices collinear with their neighbours dropped."""
    out: list[tuple[Fraction, Fraction]] = []
    for p in vertices:
        while len(out) >= 2:
            (x0, y0), (x1, y1) = out[-2], out[-1]
            if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                out.pop()
            else:
                break
        out.append(p)
    return tuple(out)


def make_pl(vertices) -> PlMap:
    """Normalize a vertex list: exact rationals, raw vertices checked,
    collinear vertices dropped."""
    pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    _check_vertices(pts)
    return PlMap(_drop_collinear(pts))


IDENTITY = make_pl([(0, 0), (1, 1)])


def apply(f: PlMap, x) -> Fraction:
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"point {x} outside [0, 1]")
    for (x0, y0), (x1, y1) in zip(f.vertices, f.vertices[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable")


def inverse(f: PlMap) -> PlMap:
    return trusted(PlMap, _drop_collinear([(y, x) for x, y in f.vertices]))


def compose(f: PlMap, g: PlMap) -> PlMap:
    """Pointwise f o g in one sweep, with no inverse built: the breakpoints
    are g's plus the g-preimages of f's, merged in the order of g's values,
    and each new vertex is one linear interpolation on the current segment
    of the other map."""
    fv = f.vertices
    out = [fv[0]]
    j = 1  # fv[j - 1][0] <= y0 < fv[j][0] on g's segment from (x0, y0)
    for (x0, y0), (x1, y1) in zip(g.vertices, g.vertices[1:]):
        while fv[j][0] < y1:  # f's vertices strictly inside g's image segment
            u, v = fv[j]
            out.append((x0 + (x1 - x0) * (u - y0) / (y1 - y0), v))
            j += 1
        (u0, v0), (u1, v1) = fv[j - 1], fv[j]
        if u1 == y1:
            out.append((x1, v1))
            j += 1
        else:
            out.append((x1, v0 + (v1 - v0) * (y1 - u0) / (u1 - u0)))
    return trusted(PlMap, _drop_collinear(out))


def support_closure(f: PlMap) -> tuple[Fraction, Fraction] | None:
    """Closure of {x : f(x) != x}, or None for the identity."""
    nonid = [(p, q) for p, q in zip(f.vertices, f.vertices[1:])
             if not (p[0] == p[1] and q[0] == q[1])]
    if not nonid:
        return None
    return nonid[0][0][0], nonid[-1][1][0]


def support_interval(H: GeneratorSet) -> tuple[Fraction, Fraction] | None:
    """Smallest closed interval containing all generator supports.

    Raises NotCompactlySupportedError when a generator moves points
    arbitrarily close to 0 or 1.
    """
    lo, hi = None, None
    for h in H.elements:
        s = support_closure(h)
        if s is None:
            continue
        if s[0] == 0 or s[1] == 1:
            raise NotCompactlySupportedError(
                f"generator support {s} touches the endpoints: {render_pl(h)}")
        lo = s[0] if lo is None else min(lo, s[0])
        hi = s[1] if hi is None else max(hi, s[1])
    if lo is None:
        return None
    return lo, hi


def displacement_witness(a, b, bound: int = 8) -> Witness:
    """An increasing PL bijection t with t(a) > b, as a bounded Z-mode
    witness.  Vertices are dyadic whenever a and b are."""
    a, b = Fraction(a), Fraction(b)
    if not 0 < a <= b < 1:
        raise ValueError(f"need 0 < a <= b < 1, got a={a}, b={b}")
    peak = (1 + b) / 2  # strictly between b and 1
    return Witness(make_pl([(0, 0), (a, peak), (1, 1)]), ZMode(bound))


def verify_displaced_supports(H: GeneratorSet, t: PlMap, P: int) -> VerificationReport:
    """Run the algebraic bounded-commutation battery AND the geometric
    disjoint-support battery, and record whether they agree."""
    fam = H.family
    report = VerificationReport("pl-displaced-supports", bounded=True)
    algebraic = verify_czc(H, Witness(t, ZMode(P)), suite="pl-algebraic")
    report.extend(algebraic)

    supp = support_interval(H)
    geometric_ok = True
    if supp is not None:
        lo, hi = supp
        x, y = lo, hi
        for p in range(1, P + 1):
            x, y = apply(t, x), apply(t, y)  # t^p image of the support interval
            disjoint = x > hi or y < lo
            geometric_ok = geometric_ok and disjoint
            report.record(
                f"supp(^(t^{p})H) disjoint from supp(H)", disjoint,
                f"[{x}, {y}]", f"outside [{lo}, {hi}]",
                detail=f"bounded check, p <= {P}")
    report.record("algebraic and geometric verdicts agree",
                  algebraic.passed == geometric_ok,
                  "algebraic " + ("pass" if algebraic.passed else "fail"),
                  "geometric " + ("pass" if geometric_ok else "fail"))
    return report


def displacement_escalates(t: PlMap, a, b, P: int) -> list[bool]:
    """Exact check of t^p(a) > t^(p-1)(b) for 1 <= p <= P."""
    a, b = Fraction(a), Fraction(b)
    out = []
    ta, tb = a, b
    prev_b = b
    for _ in range(P):
        ta = apply(t, ta)
        out.append(ta > prev_b)
        prev_b = apply(t, prev_b)
    return out


def render_pl(f: PlMap) -> str:
    return " ".join(f"({x},{y})" for x, y in f.vertices)


def to_json_obj(f: PlMap) -> dict:
    return {"vertices": [[str(x), str(y)] for x, y in f.vertices]}


def from_json_obj(obj: dict) -> PlMap:
    return make_pl([(Fraction(x), Fraction(y)) for x, y in obj["vertices"]])


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
        return render_pl(a)


PL = PlFamily()


def bump(a, b, peak_shift=None) -> PlMap:
    """A map supported exactly on [a, b]: pushes the midpoint up, identity
    outside."""
    a, b = Fraction(a), Fraction(b)
    if not 0 < a < b < 1:
        raise ValueError(f"need 0 < a < b < 1, got {a}, {b}")
    mid = (a + b) / 2
    peak = Fraction(peak_shift) if peak_shift is not None else (mid + b) / 2
    if not mid < peak < b:
        raise ValueError(f"peak {peak} must lie in ({mid}, {b})")
    return make_pl([(0, 0), (a, a), (mid, peak), (b, b), (1, 1)])
