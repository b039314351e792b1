"""Finitely supported permutations of the positive integers.

Normal form stores no fixed points, so two equal permutations always have
identical support maps.  Composition is right-to-left function application:
(a * b)(x) = a(b(x)); ``compose`` builds the composite's ascending mapping
in one merge of the two factors' mappings, with no sort.
"""

from __future__ import annotations

from .core import FamilyMismatchError, GroupFamily, Record, is_int, runs, trusted


class FinPerm(Record):
    def __init__(self, mapping: tuple[tuple[int, int], ...]):
        # sorted tuple of (point, image) pairs, fixed points omitted
        self.__dict__.update(mapping=mapping)

    def __post_init__(self):
        if not (isinstance(self.mapping, tuple)
                and all(isinstance(pair, tuple) and len(pair) == 2 for pair in self.mapping)):
            raise ValueError(f"mapping must be a tuple of (point, image) pairs: {self.mapping!r}")
        points = [p for p, _ in self.mapping]
        if any(not (is_int(p) and is_int(q)) or p < 1 or q < 1 for p, q in self.mapping):
            raise ValueError("points must be positive integers")
        if points != sorted(set(points)) or any(p == q for p, q in self.mapping):
            raise ValueError(f"moved points must be listed once each, ascending: {self.mapping}")
        if set(points) != {q for _, q in self.mapping}:
            raise ValueError(f"not a bijection of its support: {dict(self.mapping)}")

    def __call__(self, x: int) -> int:
        for p, q in self.mapping:
            if p == x:
                return q
        return x

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.mapping)

    def __str__(self) -> str:
        return render_cycles(self)


def perm_from_mapping(mapping: dict[int, int]) -> FinPerm:
    return FinPerm(tuple(sorted((p, q) for p, q in mapping.items() if p != q)))


def perm_from_cycles(cycles: list[list[int]]) -> FinPerm:
    mapping: dict[int, int] = {}
    for cyc in cycles:
        if len(set(cyc)) != len(cyc):
            raise ValueError(f"repeated point in cycle {cyc}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if a in mapping:
                raise ValueError(f"point {a} in two cycles")
            mapping[a] = b
    return perm_from_mapping(mapping)


IDENTITY = FinPerm(())


# past every point: the merge in compose reads it when a's points run out
_END = (float("inf"), None)


def compose(a: FinPerm, b: FinPerm) -> FinPerm:
    """(a o b)(x) = a(b(x)) in linear time, with no sort: one pass merges
    the two ascending mappings.  A point moved by b alone or by both maps
    to a(b(x)), looked up in a dict of a's images, and is left out when
    that is x; a point moved by a alone keeps a's pair.  The dict-and-sort
    compose this replaced is an oracle in tests/test_compose_oracles.py."""
    a_mapping = a.mapping
    a_image = dict(a_mapping).get
    out: list[tuple[int, int]] = []
    append = out.append
    rest = iter(a_mapping)
    pair = next(rest, _END)
    point = pair[0]
    for x, y in b.mapping:
        while point < x:
            append(pair)
            pair = next(rest, _END)
            point = pair[0]
        if point == x:
            pair = next(rest, _END)
            point = pair[0]
        z = a_image(y, y)
        if z != x:
            append((x, z))
    if pair is not _END:
        append(pair)
        out.extend(rest)
    return trusted(FinPerm, tuple(out))


def inverse(a: FinPerm) -> FinPerm:
    return trusted(FinPerm, tuple(sorted((q, p) for p, q in a.mapping)))


def cycles(a: FinPerm) -> list[list[int]]:
    """Cycle decomposition, each cycle rotated to start at its least point,
    cycles sorted by least point.  Linear: each point's image is popped
    from one dict."""
    images = dict(a.mapping)
    out: list[list[int]] = []
    for start in a.support:
        if start not in images:
            continue
        cyc = [start]
        x = images.pop(start)
        while x != start:
            cyc.append(x)
            x = images.pop(x)
        out.append(cyc)
    return out


def parity(a: FinPerm) -> str:
    """'even' or 'odd', via the cycle decomposition."""
    transpositions = sum(len(c) - 1 for c in cycles(a))
    return "even" if transpositions % 2 == 0 else "odd"


def block_swap(n: int) -> FinPerm:
    """The involution (1, n+1)(2, n+2)...(n, 2n)."""
    if not (is_int(n) and n >= 1):
        raise ValueError(f"block size must be an int >= 1, got {n!r}")
    return trusted(FinPerm, tuple((i, i + n) for i in range(1, n + 1))
                   + tuple((i + n, i) for i in range(1, n + 1)))


def render_cycles(a: FinPerm) -> str:
    cs = cycles(a)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cs)


class PermFamily(GroupFamily):
    name = "perm"

    def check_element(self, a):
        if not isinstance(a, FinPerm):
            raise FamilyMismatchError(f"not a FinPerm: {a!r}")

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
        return a.mapping == b.mapping

    def support(self, a):
        """The moved points, point p as [p, p + 1)."""
        self.check_element(a)
        return 1, runs(p for p, _ in a.mapping)

    def render(self, a):
        self.check_element(a)
        return render_cycles(a)

    def __reduce__(self):
        # the one instance: a copy or pickle of PERM is PERM itself
        return "PERM"


PERM = PermFamily()
