"""Wreath products over Z acting on Z/n with finitely supported base
maps, and the homomorphism machinery that turns a chain of commutation
witnesses into a map from the iterated tower into the target family.

The chain's orders (n_1, ..., n_k) fix the tower: ``Tower(orders)`` builds
A_1 = Z and A_(i+1) = A_i wr_(Z/n_(i+1)) Z once, with their generators,
the membership test for the distinguished subgroup B and the seeded
samplers.  ``TowerHom(chain)`` builds its own ``Tower`` from the chain.
``Tower.samples`` makes the seeded draw that ``check_hom`` checks; it
reads the tower alone, so one draw serves every chain of the same orders.

Conventions: (f, a)(g, b) = (x -> f(x) * g(a^-1 x), ab); the evaluation
product over base coordinates is taken in ascending point order, which is
sound because the factors commute whenever the chain invariants hold.
Points are stored as their residues mod n, so a base is a tuple of
(point, entry) pairs sorted by point, and equal elements are equal values.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from . import core
from .core import (CcckitError, FamilyMismatchError, Finite, GeneratorSet, GroupFamily, Record,
                   VerificationReport, Witness, commutes, conjugate, is_int)


class ChainInvariantError(CcckitError):
    pass


# ---------------------------------------------------------------------------
# The acting group Z


class IntAdditiveFamily(GroupFamily):
    """Z under addition.  Every method that takes an element checks it;
    ``mul``, ``eq`` and ``is_identity`` run ``check_element`` only for a
    class other than int, so a plain int costs one class test."""

    name = "Z"

    def check_element(self, a):
        if not is_int(a):
            raise FamilyMismatchError(f"not an integer: {a!r}")

    def identity(self):
        return 0

    def mul(self, a, b):
        if a.__class__ is not int or b.__class__ is not int:
            self.check_element(a)
            self.check_element(b)
        return a + b

    def inv(self, a):
        self.check_element(a)
        return -a

    def eq(self, a, b):
        if a.__class__ is not int or b.__class__ is not int:
            self.check_element(a)
            self.check_element(b)
        return a == b

    def is_identity(self, a):
        if a.__class__ is not int:
            self.check_element(a)
        return a == 0

    def render(self, a):
        self.check_element(a)
        return str(a)

    def __reduce__(self):
        # the one instance: a copy or pickle of INT_Z is INT_Z itself
        return "INT_Z"


INT_Z = IntAdditiveFamily()


# ---------------------------------------------------------------------------
# Wreath elements


class WreathElement(Record):
    """The base map and top element of a wreath product element.  The
    record checks the shape it can see alone: base is a tuple of (point,
    entry) pairs whose points are ints in strictly ascending order, and
    top is an int, as the family's operations add them.  That the points
    are residues mod n and no entry is an identity is the family's to
    know; ``WreathFamily.element`` normalises to it."""

    def __init__(self, base: tuple[tuple[int, object], ...], top: int):
        self.__dict__.update(base=base, top=top)

    def __post_init__(self):
        base = self.base
        if not isinstance(base, tuple):
            raise ValueError(f"base must be a tuple of (point, entry) pairs, got {base!r}")
        last = None
        for pair in base:
            if not (isinstance(pair, tuple) and len(pair) == 2 and is_int(pair[0])):
                raise ValueError(f"base pair must be an (int point, entry) tuple, got {pair!r}")
            if last is not None and pair[0] <= last:
                raise ValueError(f"base points must ascend strictly, got {base!r}")
            last = pair[0]
        if not is_int(self.top):
            raise ValueError(f"top must be an int, got {self.top!r}")


class WreathFamily(GroupFamily):
    """Gamma wr_(Z/n) Z with finitely supported base maps: the top is an
    int a, and it moves the point x of Z/n to x + a mod n.

    ``element`` is the public constructor and validates the points, base
    entries and top it is given; it reduces a point x to x % n.
    ``product``/``mul``/``inv`` build their results from valid elements,
    so ``check_element`` checks the type and that the points lie in
    0..n-1 (they ascend: it reads the first and the last), not the
    entries; the tops and points are added and compared as ints.  Every
    method that takes an element calls it, ``render`` too."""

    def __init__(self, base_family: GroupFamily, n: int):
        if not (is_int(n) and n >= 1):
            raise ValueError(f"need an int n >= 1, got {n!r}")
        self.base_family = base_family
        self.n = n
        self.name = f"({base_family.name})wr(Z)"

    def check_element(self, a):
        if not isinstance(a, WreathElement):
            raise FamilyMismatchError(f"not a WreathElement: {a!r}")
        base = a.base
        if base and (base[0][0] < 0 or base[-1][0] >= self.n):
            raise FamilyMismatchError(f"base point outside 0..{self.n - 1}: {a!r}")

    def normalize(self, pairs: Sequence[tuple[int, object]], top: int) -> WreathElement:
        """The element with base entries ``pairs`` at residues mod n:
        entries at one point multiplied in pair order, identity entries
        dropped, points ascending, built through ``core.trusted``."""
        base = self.base_family
        mul, is_identity = base.mul, base.is_identity
        merged: dict[int, object] = {}
        get = merged.get
        for x, g in pairs:
            h = get(x)  # no entry is None
            merged[x] = g if h is None else mul(h, g)
        return core.trusted(WreathElement, tuple(
            [pair for pair in sorted(merged.items()) if not is_identity(pair[1])]), top)

    def element(self, pairs, top=0) -> WreathElement:
        INT_Z.check_element(top)
        n, check = self.n, self.base_family.check_element
        checked = []
        for x, g in pairs:
            check(g)
            INT_Z.check_element(x)
            checked.append((x % n, g))
        return self.normalize(checked, top)

    def identity(self):
        return core.trusted(WreathElement, (), 0)

    def is_identity(self, u):
        self.check_element(u)
        return not u.base and u.top == 0

    def product(self, word):
        """u_1 ... u_k in one pass: each letter's entries are merged
        straight into one dict at their points moved by the top a_1 ...
        a_(i-1) of the letters before it, entries at one point multiplied
        in word order, and the result is built as ``normalize`` builds
        its own, through ``core.trusted``.  Each letter is checked by
        class identity, and each point as it is read, so ``check_element``
        runs only for another class or a point outside 0..n-1; a letter
        with an empty base, such as a shift, only moves the top."""
        n, base = self.n, self.base_family
        mul = base.mul
        merged: dict[int, object] = {}
        get = merged.get
        top = 0
        for u in word:
            if u.__class__ is not WreathElement:
                self.check_element(u)
            for x, g in u.base:
                if not 0 <= x < n:
                    self.check_element(u)
                x = (top + x) % n
                h = get(x)  # no entry is None
                merged[x] = g if h is None else mul(h, g)
            top += u.top
        is_identity = base.is_identity
        return core.trusted(WreathElement, tuple(
            [pair for pair in sorted(merged.items()) if not is_identity(pair[1])]), top)

    def mul(self, u, v):
        return self.product((u, v))

    def inv(self, u):
        self.check_element(u)
        a, n, inv = u.top, self.n, self.base_family.inv
        return self.normalize([((x - a) % n, inv(g)) for x, g in u.base], -a)

    def eq(self, u, v):
        self.check_element(u)
        self.check_element(v)
        if u.top != v.top or len(u.base) != len(v.base):
            return False
        base_eq = self.base_family.eq
        return all(x == y and base_eq(g, h) for (x, g), (y, h) in zip(u.base, v.base))

    def render(self, u):
        self.check_element(u)
        render = self.base_family.render
        body = ", ".join(f"{x}: {render(g)}" for x, g in u.base)
        return "{" + body + " | " + str(u.top) + "}"


# ---------------------------------------------------------------------------
# The tower A_1 = Z, A_(i+1) = A_i wr_(Z/n_(i+1)) Z


def _randint(rng: random.Random, a: int, b: int) -> int:
    """rng.randint(a, b) for a <= b, drawn from ``rng.getrandbits`` as
    ``random.Random`` draws it on Python 3.10 to 3.13: k = n.bit_length()
    bits for the n = b - a + 1 outcomes, drawn again while r >= n.  The
    bits, the result and the generator's state after it are those of
    ``rng.randint``, with one Python frame where it takes three."""
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


class Tower:
    """The tower fixed by the orders (n_1, ..., n_k) of a witness chain:
    A_1 = Z and A_(i+1) = A_i wr_(Z/n_(i+1)) Z, with its distinguished
    subgroup B.  Levels are numbered 1..k; ``families[i]``,
    ``identities[i]`` and ``generators[i]`` belong to level i + 1, each
    built once.  The canonical generators are the shift at each level and
    the lower generators embedded at coordinate 0."""

    def __init__(self, orders: tuple[int, ...]):
        if not (isinstance(orders, tuple) and orders
                and all(is_int(n) and n >= 2 for n in orders)):
            raise ValueError(f"orders must be a non-empty tuple of ints >= 2, got {orders!r}")
        self.orders = orders
        self.depth = len(orders)
        fam: GroupFamily = INT_Z
        gens: tuple = (1,)
        families, generators = [fam], [gens]
        for n in orders[1:]:
            fam = WreathFamily(fam, n)
            gens = tuple(fam.element([(0, g)]) for g in gens) + (fam.element([], top=1),)
            families.append(fam)
            generators.append(gens)
        self.families = tuple(families)
        self.identities = tuple(fam.identity() for fam in families)
        self.generators = tuple(generators)
        self.family = fam
        self.letters = tuple((g, fam.inv(g)) for g in gens)  # (g, g^-1) per generator

    def _level(self, level: int | None) -> int:
        if level is None:
            return self.depth
        if not (is_int(level) and 1 <= level <= self.depth):
            raise ValueError(f"level {level!r} outside 1..{self.depth}")
        return level

    def in_B(self, u, level: int | None = None) -> bool:
        """u lies in B: multiples of n_1 at the bottom, and at level i + 1
        the elements with coordinate-0 entry in the lower subgroup and top
        a multiple of n_(i+1).  Each level checks its element once; the
        coordinate-0 entry is read off the base, whose points ascend from
        0, so it is the first entry when its point is 0 and the lower
        identity otherwise."""
        level = self._level(level)
        if level == 1:
            INT_Z.check_element(u)
            return u % self.orders[0] == 0
        self.families[level - 1].check_element(u)
        if u.top % self.orders[level - 1]:
            return False
        base = u.base
        entry = base[0][1] if base and base[0][0] == 0 else self.identities[level - 2]
        return self.in_B(entry, level - 1)

    def sample(self, rng: random.Random):
        """A random word of length at most 8 in the top-level generators,
        each letter a generator or, with probability 1/2, its inverse.
        The length is drawn by ``_randint``, and each letter inline as
        ``rng.choice(self.letters)`` draws it: the same bits and the same
        letter, with no Python frame per letter."""
        letters, random_, getrandbits = self.letters, rng.random, rng.getrandbits
        n = len(letters)
        k = n.bit_length()
        word = []
        for _ in range(_randint(rng, 0, 8)):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            g, g_inv = letters[r]
            word.append(g_inv if random_() < 0.5 else g)
        return self.family.product(word)

    def sample_B(self, rng: random.Random, level: int):
        """A random element of B at the given level: a B element at
        coordinate 0, an arbitrary one at each other point with
        probability 0.7, and a top that is a multiple of the order."""
        level = self._level(level)
        n = self.orders[level - 1]
        if level == 1:
            return n * _randint(rng, -3, 3)
        pairs = [(0, self.sample_B(rng, level - 1))]
        for p in range(1, n):
            if rng.random() < 0.7:
                pairs.append((p, self.sample_level(rng, level - 1)))
        return self.families[level - 1].normalize(pairs, n * _randint(rng, -2, 2))

    def sample_level(self, rng: random.Random, level: int):
        """A random element of the level-th group, an entry at each point
        with probability 0.7."""
        level = self._level(level)
        if level == 1:
            return _randint(rng, -4, 4)
        pairs = [(p, self.sample_level(rng, level - 1))
                 for p in range(self.orders[level - 1]) if rng.random() < 0.7]
        return self.families[level - 1].normalize(pairs, _randint(rng, -3, 3))

    def samples(self, sample_size: int, seed: int) -> TowerSamples:
        """The seeded draw that ``check_hom`` checks, from one
        ``random.Random(seed)``: sample_size law pairs (u, v) with their
        product uv, then words until sample_size non-members of B are found
        or 100 * sample_size words were tried, then sample_size members of
        B.  The draw reads the tower alone, never a homomorphism, so it
        depends only on the orders, sample_size and seed, and one draw
        serves every chain of these orders."""
        if not (is_int(sample_size) and sample_size >= 1):
            raise ValueError(f"sample_size must be an int >= 1, got {sample_size!r}")
        rng = random.Random(seed)
        law = []
        for _ in range(sample_size):
            u, v = self.sample(rng), self.sample(rng)
            law.append((u, v, self.family.mul(u, v)))
        outside = []
        for _ in range(100 * sample_size):
            if len(outside) == sample_size:
                break
            a = self.sample(rng)
            if not self.in_B(a):
                outside.append(a)
        members = tuple(self.sample_B(rng, self.depth) for _ in range(sample_size))
        return TowerSamples(self.orders, tuple(law), tuple(outside), members)


class TowerSamples(Record):
    """One draw of ``Tower.samples`` from the tower of ``orders``: the law
    triples (u, v, uv), the non-members of B found, fewer than the sample
    size when the attempts ran out, and the members of B, one per sample.
    ``text`` keeps its memo in the ``_texts`` slot, outside the fields, as
    a record keeps its hash: ``==``, ``repr``, copies and pickles see the
    fields alone."""

    __slots__ = ("__dict__", "_texts")

    def __init__(self, orders: tuple[int, ...], law: tuple, outside: tuple, members: tuple):
        self.__dict__.update(orders=orders, law=law, outside=outside, members=members)

    def text(self, family: GroupFamily, u) -> str:
        """family.render(u) for an element u of the draw, rendered once per
        draw and value of u, however many chains are checked on it; family
        is the top family of any tower of these orders, which all render u
        alike.  Keyed like ``TowerHom``'s memos."""
        try:
            texts = self._texts
        except AttributeError:
            texts = {}
            object.__setattr__(self, "_texts", texts)
        key = (u.base, u.top) if u.__class__ is WreathElement else u
        text = texts.get(key)
        if text is None:
            text = texts[key] = family.render(u)
        return text


# ---------------------------------------------------------------------------
# Witness chains and the homomorphism into the target family


class WitnessChain(Record):
    """t_1..t_k with orders n_1..n_k over a target family, plus the nested
    generator data: Lambda_0 = H, Lambda_i = <Lambda_(i-1), t_i>."""

    def __init__(self, family: GroupFamily, generators: tuple, ts: tuple,
                 orders: tuple[int, ...]):
        # generators of H; ts = (t_1, ..., t_k); orders = (n_1, ..., n_k)
        self.__dict__.update(family=family, generators=generators, ts=ts, orders=orders)

    def __post_init__(self):
        # tuples, so that the chain hashes as its fields, as every record does
        for field in ("generators", "ts", "orders"):
            if not isinstance(self.__dict__[field], tuple):
                raise ValueError(f"{field} must be a tuple, got {self.__dict__[field]!r}")
        if len(self.ts) != len(self.orders) or not self.ts:
            raise ValueError("need one order per witness element")
        if not all(is_int(n) and n >= 2 for n in self.orders):
            raise ValueError(f"all orders must be ints >= 2: {self.orders}")

    def level_generators(self, i: int) -> tuple:
        """Generators of Lambda_i."""
        return self.generators + self.ts[:i]


def validate_chain(chain: WitnessChain) -> VerificationReport:
    """Machine-check the per-level commutation invariants: level i is the
    commutation battery of the witness (t_i, n_i) on the generators of
    Lambda_(i-1)."""
    report = VerificationReport("witness-chain")
    for i, (t, n) in enumerate(zip(chain.ts, chain.orders), start=1):
        H = GeneratorSet(chain.family, chain.level_generators(i - 1))
        report.extend(core.verify_ccc(H, Witness(t, Finite(n))), prefix=f"level {i}: ")
    return report


class TowerHom:
    """Evaluator for the inductively defined homomorphism from the tower
    into the target family: the bottom level sends m to t_1^m, and each
    higher level conjugates the lower images through ascending powers of the
    next witness before appending the shift image.  ``tower`` is the
    ``Tower`` of the chain's orders, built after the chain validates.

    Per-instance memos hold what the chain fixes: t_level^k per (level,
    k); per level, ^(t_level^p) f(a_p) per (p, a_p) and f(u) per u; and
    the product of f(u)'s factors per tuple of factors.  A tower
    element is one value: ``element`` stores canonical points and
    ``normalize`` sorts the base and drops identity entries, so equal
    elements have equal fields.  The level memos are keyed by those
    fields, (u.base, u.top), or by the int for a level-1 element: a tuple
    key hashes and compares in C, with no record hash for a fresh sample.
    Level 1 needs neither memo, as f(m) is the power t_1^m.

    t_level^k for |k| >= 2 is one product from t^(k - 1) or t^(k + 1)
    when either neighbour is memoized, and ``GroupFamily.power``
    otherwise, so an element with top 10**6 still costs O(log) products.
    At p = 0 the conjugate is f(a_0) itself, with no product.  Each power,
    conjugate and image is interned by value in ``_canon`` when it is
    built, so equal values are one object.  Many tower elements share
    their factors (at depth 2, a 200-sample draw reaches 300 distinct
    elements with 8 distinct factor tuples), and the product memo, keyed
    by the tuple of interned factors, multiplies each distinct tuple once.
    Interning needs the target's elements to hash, with ``==`` implying
    group equality, as ``check_hom`` does.  Each memo is read with one
    ``dict.get``, which no element value can answer with None, and filled
    only on a miss."""

    def __init__(self, chain: WitnessChain):
        check = validate_chain(chain)
        if not check.passed:
            raise ChainInvariantError(f"chain invariants fail: {check.counterexample}")
        self.tower = Tower(chain.orders)
        self.chain = chain
        self.family = chain.family
        depth = self.tower.depth
        self._canon: dict = {}  # value -> the one object of that value
        self._powers: dict[tuple[int, int], object] = {}
        self._conjugates: tuple[dict, ...] = tuple({} for _ in range(depth))
        self._images: tuple[dict, ...] = tuple({} for _ in range(depth))
        self._products: dict[tuple, object] = {}

    def _power(self, level: int, k: int):
        """t_level^k, built once per (level, k) and interned: t^0, t and
        t^-1 with no product, and any other power with one product,
        t^(k - 1) t or t^(k + 1) t^-1, when either neighbour is memoized,
        else by ``GroupFamily.power``."""
        powers, key = self._powers, (level, k)
        power = powers.get(key)
        if power is None:
            fam, t = self.family, self.chain.ts[level - 1]
            if -1 <= k <= 1:
                power = t if k == 1 else fam.inv(t) if k else fam.identity()
            else:
                below = powers.get((level, k - 1))
                if below is not None:
                    power = fam.mul(below, t)
                else:
                    above = powers.get((level, k + 1))
                    power = (fam.power(t, k) if above is None
                             else fam.mul(above, self._power(level, -1)))
            power = powers[key] = self._canon.setdefault(power, power)
        return power

    def _conjugate(self, level: int, p: int, a_p):
        """^(t_level^p) f(a_p) = t^p f(a_p) t^-p, computed once per
        (level, p, a_p) and interned; equal tower elements have equal
        images.  At p = 0 it is f(a_p), and no product is taken."""
        key = (p, a_p) if level == 2 else (p, a_p.base, a_p.top)
        conjugates = self._conjugates[level - 1]
        conj = conjugates.get(key)
        if conj is None:
            conj = self._image(a_p, level - 1)
            if p:
                fam = self.family
                conj = fam.mul(fam.mul(self._power(level, p), conj), self._power(level, -p))
                conj = self._canon.setdefault(conj, conj)
            conjugates[key] = conj
        return conj

    def _image(self, u, level: int):
        """f(u) for u in the level-th tower group, level valid and u one
        of its elements, computed once per level and value of u, and its
        factors multiplied once per tuple of their values."""
        if level == 1:
            return self._power(1, u)
        images = self._images[level - 1]
        fields = (u.base, u.top)
        image = images.get(fields)
        if image is None:
            # ascending p; factors commute by the chain invariants.  u's
            # points are canonical, so coordinate p is stored under p
            get, e, conjugate = dict(u.base).get, self.tower.identities[level - 2], self._conjugate
            factors = [conjugate(level, p, get(p, e)) for p in range(self.chain.orders[level - 1])]
            factors.append(self._power(level, u.top))
            factors = tuple(factors)
            image = self._products.get(factors)
            if image is None:
                image = self.family.product(factors)
                image = self._products[factors] = self._canon.setdefault(image, image)
            images[fields] = image
        return image

    def eval(self, u, level: int | None = None):
        """f(u) for u in the level-th tower group, 1..depth, by default
        the top one."""
        tower = self.tower
        level = tower.depth if level is None else tower._level(level)
        tower.families[level - 1].check_element(u)
        return self._image(u, level)

    def __call__(self, u):
        return self.eval(u)


# ---------------------------------------------------------------------------
# The homomorphism property checks


def check_hom(f: TowerHom, samples: TowerSamples) -> VerificationReport:
    """Checks on one seeded draw of ``Tower.samples`` of the homomorphism
    law, (i) commutation of H with its conjugates by images of
    non-members of the distinguished subgroup, and (ii) commutation of H
    with images of members, where H is generated by f's chain's
    generators, the subgroup the chain's invariants are about.  The draw
    holds tower elements only, and f is applied here, so one draw, which
    must come from a tower of f's orders, serves every chain of them.

    Every image is read through ``f.eval``, whose memo holds it after the
    first read.  Verdicts (i) and (ii) depend on the sample only through
    its image, so each is decided once per distinct f(a), resp. f(b).  In
    the same way the product f(u)f(v) is taken once per distinct pair
    (f(u), f(v)) and interned in f's ``_canon``, so a law that holds finds
    f(uv) and f(u)f(v) to be one object, which ``fam.eq`` compares and
    ``report.text`` renders once.  These memos are dicts local to the
    call, keyed by f's interned images.  Each
    distinct image is rendered once per report, through ``report.text``,
    and each distinct sample once per draw, through ``samples.text``,
    however many chains are checked on it.  f(uv) is always evaluated on
    the tower product uv, never read off f(u)f(v), and every sample still
    gets its own record."""
    if not isinstance(samples, TowerSamples):
        raise ValueError(f"samples must be a TowerSamples, got {type(samples).__name__}")
    if samples.orders != f.tower.orders:
        raise ValueError(f"samples come from the tower of orders {samples.orders}, "
                         f"f maps the tower of orders {f.tower.orders}")
    fam, hs = f.family, f.chain.generators
    report = VerificationReport("tower-hom", bounded=True)
    products: dict = {}  # (f(u), f(v)) -> (f(u)f(v), interned; its text)
    for k, (u, v, uv) in enumerate(samples.law):
        lhs, fu, fv = f.eval(uv), f.eval(u), f.eval(v)
        entry = products.get((fu, fv))
        if entry is None:
            rhs = fam.mul(fu, fv)
            rhs = f._canon.setdefault(rhs, rhs)
            entry = products[fu, fv] = (rhs, report.text(fam, rhs))
        rhs, rhs_text = entry
        report.record(f"f(uv) = f(u)f(v) [{k}]", fam.eq(lhs, rhs),
                      report.text(fam, lhs), rhs_text)

    # (part, law, sample name, kind, the draw's samples, what H must commute with)
    for part, law, name, kind, drawn, moved in (
            ("(i)", "[H, ^f(a) H] = 1, a outside B", "a", "non-member", samples.outside,
             lambda fa: [conjugate(fam, fa, h) for h in hs]),
            ("(ii)", "[H, f(b)] = 1, b in B", "b", "member", samples.members,
             lambda fb: [fb])):
        verdicts: dict = {}  # f(x) -> its verdict
        for k, x in enumerate(drawn):
            fx = f.eval(x)
            verdict = verdicts.get(fx)
            if verdict is None:
                verdict = verdicts[fx] = all(commutes(fam, h, y) for y in moved(fx) for h in hs)
            report.record(f"{part} {law} [{k}]", verdict, "all generator commutators", "e",
                          detail=f"{name} = {samples.text(f.tower.family, x)}")
        if len(drawn) < len(samples.law):
            report.record(f"{part} enough {kind} samples", False,
                          str(len(drawn)), str(len(samples.law)))
    return report
