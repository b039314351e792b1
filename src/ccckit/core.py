"""Family-agnostic group algebra and the commutation verification engine.

Every concrete family (permutations, matrices, braids, IETs, PL maps,
wreath products) plugs into the same abstract contract, so the
verification batteries are written once and reused everywhere.  The
engine calls check_element, support, mul, inv, eq and power, and render
only for the value of a failing record.
"""

from __future__ import annotations

import abc
import functools
import itertools
from collections.abc import Callable, Iterable, Sequence


class CcckitError(Exception):
    pass


class FamilyMismatchError(CcckitError):
    """An element was handed to a family it does not belong to."""


class WitnessModeError(CcckitError):
    """Witness mode incompatible with the requested check."""


def is_int(x: object) -> bool:
    """x is an int and not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


class Record:
    """Base of the immutable value types, such as elements and witnesses.

    A subclass declares its fields once, as the parameters of its
    ``__init__``, which stores them in that order in the instance
    ``__dict__`` and then calls ``self.__post_init__()``.  ``_fields`` is
    read off that signature.  ``__post_init__`` is the one place a type
    validates its fields.

    Two records are equal when they have the same class and equal fields; a
    record hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)`` and refuses assignment and deletion.

    The fields never change, so the hash is computed once per object, on
    its first call, and kept in the ``_hash`` slot, outside ``__dict__``:
    ``==``, ``repr``, ``replace``, ``trusted``, copies and pickles see the
    fields alone.  A record with an unhashable field raises TypeError on
    every call and keeps nothing.
    """

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __post_init__(self):
        """Raise if the fields break the type's invariants; this default
        accepts any fields."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(self.__dict__.values()))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self):
        # the fields alone: copy and pickle would restore the _hash slot
        # through __setattr__, which refuses it
        return self.__dict__

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def trusted(cls, *values):
    """An instance of the record type cls with the given field values,
    built without running __post_init__.

    Element types validate in __post_init__, at the public boundary.  Group
    operations on valid elements keep the invariants by construction and
    build their results through this helper instead.  It checks only that
    it gets one value per field.
    """
    fields = cls._fields
    if len(values) != len(fields):
        raise ValueError(f"{cls.__name__} takes {len(fields)} field values, got {len(values)}")
    obj = object.__new__(cls)
    obj.__dict__.update(zip(fields, values))
    return obj


def replace(record, **changes):
    """A copy of record with the given fields changed, built through its
    public constructor, so __post_init__ validates it again."""
    return type(record)(**{**record.__dict__, **changes})


class GroupFamily(abc.ABC):
    """Abstract group contract: identity, multiplication, inverse, equality,
    and optionally supports.

    Elements are immutable plain values that hash, and values that are
    ``==`` render alike; the family object holds the operations.  Group
    equality must be decided on normal forms, never on renderings.  The
    engine certifies [a, b] = e when ``support`` shows a and b disjoint,
    and otherwise decides it as ab = ba; it renders only the commutator of
    a failing record.
    """

    name: str = "group"

    @abc.abstractmethod
    def identity(self) -> object: ...

    @abc.abstractmethod
    def mul(self, a: object, b: object) -> object: ...

    @abc.abstractmethod
    def inv(self, a: object) -> object: ...

    @abc.abstractmethod
    def eq(self, a: object, b: object) -> bool: ...

    @abc.abstractmethod
    def render(self, a: object) -> str: ...

    def check_element(self, a: object) -> None:
        """Raise FamilyMismatchError if ``a`` does not belong here."""

    def support(self, a: object) -> tuple[int, tuple[tuple[int, int], ...]] | None:
        """Where a moves anything, or None for unknown, this default.

        A support is (den, intervals): sorted, disjoint, half-open integer
        intervals [lo/den, hi/den), den >= 1, of one ordered coordinate line
        that the family fixes, such that a is the identity off their union
        and maps that union onto itself.  Elements with disjoint supports
        commute, so _disjoint(support(a), support(b)) certifies [a, b] = e.
        A support must be sound, not tight, and equal elements may have
        different ones, so verify_ccc may certify a conjugate's records by
        the support of an element it is claimed, and checked, to equal.
        Like every method that takes an element, it calls check_element
        first, so an element of another family raises FamilyMismatchError."""
        self.check_element(a)
        return None

    def product(self, elements: Iterable) -> object:
        """a_1 a_2 ... a_k, and the identity for no elements: the left fold
        of ``mul`` from ``identity()``, which starts at a_1 = e a_1 and so
        makes k - 1 products.  a_1 is checked here, as ``mul`` checks every
        later factor, so a one-element product refuses a foreign element
        too."""
        elements = iter(elements)
        for first in elements:
            self.check_element(first)
            return functools.reduce(self.mul, elements, first)
        return self.identity()

    def power(self, a: object, k: int) -> object:
        """a^k by binary powering: bitlen(k) + popcount(k) - 2 products for
        k >= 1 (the result starts at the lowest set bit, and no square is
        taken past the highest)."""
        if not is_int(k):
            raise ValueError(f"exponent must be an int, got {k!r}")
        self.check_element(a)
        if k < 0:
            return self.power(self.inv(a), -k)
        if k == 0:
            return self.identity()
        while not k & 1:
            a = self.mul(a, a)
            k >>= 1
        result = a
        k >>= 1
        while k:
            a = self.mul(a, a)
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
        return result

    def is_identity(self, a: object) -> bool:
        return self.eq(a, self.identity())


def commutator(family: GroupFamily, a: object, b: object) -> object:
    """[a, b] = a b a^-1 b^-1 (fixed convention)."""
    family.check_element(a)
    family.check_element(b)
    return family.mul(family.mul(a, b), family.mul(family.inv(a), family.inv(b)))


def runs(indices: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """The set of ascending distinct ints indices as the fewest half-open
    intervals [lo, hi): each run of consecutive ints is one interval."""
    out: list[list[int]] = []
    for i in indices:
        if out and out[-1][1] == i:
            out[-1][1] = i + 1
        else:
            out.append([i, i + 1])
    return tuple(map(tuple, out))


def _disjoint(sa, sb) -> bool:
    """Whether the supports sa and sb (see GroupFamily.support) are known
    to be disjoint; None is unknown and never disjoint.  One merge walk
    over both interval lists, comparing lo/den and hi/den across the two
    denominators by cross-multiplying, with no Fraction."""
    if sa is None or sb is None:
        return False
    da, xs = sa
    db, ys = sb
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i][1] * db <= ys[j][0] * da:  # xs[i] ends before ys[j] starts
            i += 1
        elif ys[j][1] * da <= xs[i][0] * db:
            j += 1
        else:
            return False
    return True


def commutes(family: GroupFamily, a: object, b: object) -> bool:
    """[a, b] = e: True at once when a and b have disjoint supports (see
    GroupFamily.support), else decided as a b = b a, with two products and
    one equality, and no inversion."""
    if _disjoint(family.support(a), family.support(b)):
        return True
    return family.eq(family.mul(a, b), family.mul(b, a))


def conjugate(family: GroupFamily, t: object, h: object) -> object:
    """^t h = t h t^-1."""
    family.check_element(t)
    family.check_element(h)
    return family.mul(family.mul(t, h), family.inv(t))


# ---------------------------------------------------------------------------
# Witnesses and generator sets


class Finite(Record):
    def __init__(self, n: int):
        self.__dict__.update(n=n)
        self.__post_init__()

    def __post_init__(self):
        if not (is_int(self.n) and self.n >= 2):
            raise WitnessModeError(f"finite witness order must be an int >= 2, got {self.n!r}")


class ZMode(Record):
    def __init__(self, bound: int = 8):
        self.__dict__.update(bound=bound)
        self.__post_init__()

    def __post_init__(self):
        if not (is_int(self.bound) and self.bound >= 1):
            raise WitnessModeError(f"Z-mode bound must be an int >= 1, got {self.bound!r}")


class Witness(Record):
    """A pair (t, mode): the conjugating element together with either its
    finite commutation order n >= 2 or a bounded stand-in for n = infinity."""

    def __init__(self, t: object, mode: Finite | ZMode):
        self.__dict__.update(t=t, mode=mode)
        self.__post_init__()


class GeneratorSet(Record):
    def __init__(self, family: GroupFamily, elements: tuple = ()):
        self.__dict__.update(family=family, elements=elements)
        self.__post_init__()

    def __len__(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# Reports


class VerificationReport:
    """The checks of one suite in order, whether they are bounded, the
    first failure, and the texts of the values its checks show.

    A check is the dict the report writers read: its name, its status
    ("pass" or "fail"), lhs, rhs and detail, each a str."""

    def __init__(self, suite: str, bounded: bool = False):
        self.suite = suite
        self.checks: list[dict] = []
        self.bounded = bounded
        self.counterexample: str | None = None
        self._texts: dict = {}  # (family, value) -> family.render(value)

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def record(self, name: str, ok: bool, lhs: str, rhs: str, detail: str = "") -> None:
        self.checks.append({"name": name, "status": "pass" if ok else "fail",
                            "lhs": lhs, "rhs": rhs, "detail": detail})
        if not ok and self.counterexample is None:
            self.counterexample = f"{name}: {lhs} != {rhs}"

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        """Append copies of other's checks with prefix added to each name
        and to the counterexample; other's checks stay as they are."""
        self.checks.extend({**c, "name": prefix + c["name"]} for c in other.checks)
        self.bounded = self.bounded or other.bounded
        if self.counterexample is None and other.counterexample is not None:
            self.counterexample = prefix + other.counterexample

    def text(self, family: GroupFamily, value: object) -> str:
        """family.render(value), rendered once per report and (family,
        value): values hash, and equal values render alike, as GroupFamily
        requires.  The memo pays for itself in check_hom: a law that holds
        has its lhs and rhs as one interned value, which is rendered once."""
        key = (family, value)
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = family.render(value)
        return text

    def to_dict(self) -> dict:
        return {"suite": self.suite, "checks": self.checks, "bounded": self.bounded,
                "counterexample": self.counterexample}


# ---------------------------------------------------------------------------
# Verification engine


def record_commutation(family: GroupFamily, report: VerificationReport, name: str,
                       a: object, b: object, detail: str = "",
                       supports: tuple | None = None) -> None:
    """Record [a, b] = e, decided as in commutes.

    supports is (support(a), support(b)); they are looked up here when the
    caller passes None.  When they are disjoint, the pass is certified with
    no product and no eq.  Otherwise the record decides ab = ba.  A passing
    record writes "e", its value by its status, and renders nothing.  A
    failing record shows the commutator [a, b] = (a b)(b a)^-1, built from
    the two products already formed with one more product and one
    inversion, and rendered through report.text."""
    sa, sb = supports or (family.support(a), family.support(b))
    if _disjoint(sa, sb) or family.eq(ab := family.mul(a, b), ba := family.mul(b, a)):
        report.record(name, True, "e", "e", detail)
    else:
        value = family.mul(ab, family.inv(ba))
        report.record(name, False, report.text(family, value), "e", detail)


def _conjugate_support(fam: GroupFamily, conj: object, h: object, h_support, p: int,
                       shift: Callable | None):
    """The support that stands for conj = ^(t^p) h in its pair records.

    shift(h, p), when given, is the element conj is claimed to equal.  When
    h's support and the claimed element's are both known, one eq checks the
    claim, and if it holds the claimed element's support is returned.
    Otherwise, or with no shift, it is conj's own support."""
    if shift is not None and h_support is not None:
        claimed = shift(h, p)
        claimed_support = fam.support(claimed)
        if claimed_support is not None and fam.eq(conj, claimed):
            return claimed_support
    return fam.support(conj)


def _neighbour_conjugates(fam: GroupFamily, hs: Sequence, s: object, s_inv: object,
                          top: int):
    """Yield [^(s^q) h for h in hs] for q = 1..top, each conjugate built
    from its neighbour with two products against s and s^-1:
    ^(s^q) h = s ^(s^(q-1)) h s^-1, from ^(s^0) h = h.  s^q h s^-q costs
    two products as well, but against s^q, which can grow with q: the pl
    battery's witness has 3 vertices and its q-th power q + 2."""
    conjs = list(hs)
    for _ in range(top):
        conjs = [fam.mul(fam.mul(s, c), s_inv) for c in conjs]
        yield conjs


def _mirrors(report: VerificationReport) -> bool:
    """Whether the records at p < 0 may copy their mirrors at p > 0 (see
    _conjugate_commutators): no record of report failed, read in O(1)."""
    return report.counterexample is None


def _conjugate_commutators(fam: GroupFamily, hs: Sequence, t: object, t_inv: object,
                           top: int, report: VerificationReport,
                           detail: str = "", shift: Callable | None = None) -> list:
    """Record [h_i, ^(t^p) h_j] = e for p = 1..top, then p = -1..-top, and
    every pair, and return the supports of the h_i.

    t_inv is t^-1.  Each h_i's support is found once per call, and each
    conjugate ^(t^p) h_j is built from its neighbour ^(t^(p-1)) h_j (see
    _neighbour_conjugates), and its support found, once per (p, j):
    through the claim shift(h_j, p) when it is given and holds (see
    _conjugate_support).  Each pair is then certified by disjoint supports
    or costs two products (see record_commutation), always on the real
    conjugate, so a failing record renders the real commutator.

    By the mirror identity [h_i, ^(t^-q) h_j] = ^(t^-q) [h_j, ^(t^q) h_i]^-1,
    in any group, the record at p = -q with (i, j) passes exactly when the
    one at q with (j, i) does.  So when none at p > 0 failed (see _mirrors),
    the sweep over p < 0 is not built: each of its records copies the
    verdict, lhs, rhs and detail of its mirror.  Otherwise it is built.
    """
    if not hs:
        raise ValueError("empty generator set: nothing to check")
    h_supports = [fam.support(h) for h in hs]
    start = len(report.checks)
    for sign, s, s_inv in ((1, t, t_inv), (-1, t_inv, t)):
        if sign < 0 and _mirrors(report):
            k = len(hs)
            for q, i, j in itertools.product(range(top), range(k), range(k)):
                c = report.checks[start + (q * k + j) * k + i]
                report.record(f"[h{i + 1}, ^(t^{-q - 1}) h{j + 1}]", c["status"] == "pass",
                              c["lhs"], c["rhs"], c["detail"])
            break
        for q, conjs in enumerate(_neighbour_conjugates(fam, hs, s, s_inv, top), 1):
            p = sign * q
            conj_supports = [_conjugate_support(fam, c, hj, sj, p, shift)
                             for c, hj, sj in zip(conjs, hs, h_supports)]
            for i, (hi, si) in enumerate(zip(hs, h_supports)):
                for j, (conj, sc) in enumerate(zip(conjs, conj_supports)):
                    record_commutation(fam, report, f"[h{i + 1}, ^(t^{p}) h{j + 1}]", hi, conj,
                                       detail, supports=(si, sc))
    return h_supports


def verify_ccc(H: GeneratorSet, w: Witness, suite: str = "ccc",
               shift: Callable | None = None) -> VerificationReport:
    """Check the finite-order commutation battery on generators.

    For t of order mode n:  [h_i, ^(t^p) h_j] = e for 1 <= |p| < n, and
    [h_i, t^n] = e.  Passing on generators is equivalent to the
    subgroup-level statement.  By the mirror identity, [h_i, ^(t^-q) h_j]
    = e exactly when [h_j, ^(t^q) h_i] = e (see _conjugate_commutators).

    shift(h_j, p), when given, is the element that ^(t^p) h_j is claimed to
    equal, for a witness that displaces H: a claim that holds lends its
    support to the conjugate's records, so they can be certified, and a
    claim that fails changes nothing.  Verdicts and report bytes never
    depend on it.

    Of the powers of t it builds t^-1, one inversion, and t^n by
    GroupFamily.power, bitlen(n) + popcount(n) - 2 products; each conjugate
    is built from its neighbour (see _neighbour_conjugates), and those at
    p < 0 only when some record at p > 0 failed.
    """
    if not isinstance(w.mode, Finite):
        raise WitnessModeError("verify_ccc requires a Finite(n) witness")
    fam = H.family
    fam.check_element(w.t)
    for h in H.elements:
        fam.check_element(h)
    n = w.mode.n
    report = VerificationReport(suite)
    h_supports = _conjugate_commutators(fam, H.elements, w.t, fam.inv(w.t), n - 1, report,
                                        shift=shift)
    tn = fam.power(w.t, n)
    tn_support = fam.support(tn)
    for i, (hi, si) in enumerate(zip(H.elements, h_supports)):
        record_commutation(fam, report, f"[h{i + 1}, t^{n}]", hi, tn,
                           supports=(si, tn_support))
    return report


def verify_czc(H: GeneratorSet, w: Witness, suite: str = "czc") -> VerificationReport:
    """Bounded check of the n = infinity battery: [h_i, ^(t^p) h_j] = e for
    1 <= |p| <= P.  This is a bounded check of a universally quantified
    condition, and the report says so.  [h_i, ^(t^-q) h_j] = e exactly
    when [h_j, ^(t^q) h_i] = e, by the mirror identity.

    Of the powers of t it builds t^-1 alone; each conjugate is built from
    its neighbour (see _neighbour_conjugates), and those at p < 0 only when
    some record at p > 0 failed.
    """
    if not isinstance(w.mode, ZMode):
        raise WitnessModeError("verify_czc requires a ZMode witness")
    fam = H.family
    fam.check_element(w.t)
    for h in H.elements:
        fam.check_element(h)
    P = w.mode.bound
    report = VerificationReport(suite, bounded=True)
    _conjugate_commutators(fam, H.elements, w.t, fam.inv(w.t), P, report,
                           detail=f"bounded check, |p| <= {P}")
    return report
