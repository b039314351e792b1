"""The registry of group families that the law suite (test_laws.py) checks.

An entry gives a GroupFamily and the letters its elements are drawn from:
a battery's generators H, their conjugates by its witness t (the real
^t h and the claimed Stable.shift) and t.  Where independent code exists
it gives a slow oracle ``mul``, and a family with supports gives
``fixed_off(a, inside)``: whether a fixes each point that ``inside`` puts
outside its support and maps the support into itself, read off a's own
data.  A new family gets every law from one entry here.
"""

from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from ccckit import iet as ietmod
from ccckit import plhomeo as pl
from ccckit import suites
from ccckit import wreath as w
from ccckit.core import GroupFamily, conjugate, is_int

import util
from test_compose_oracles import (oracle_aut_compose, oracle_iet_compose, oracle_pl_compose,
                                  oracle_perm_compose)
from test_matrix import dense_mul
from util import CLOSURE_LABELS, closure_engine_inputs, products_of


class Family(NamedTuple):
    fam: GroupFamily
    own: tuple  # the generators of H
    moved: tuple  # their conjugates by t, real and claimed
    t: object  # the witness
    oracle_mul: Callable | None = None
    fixed_off: Callable | None = None  # None: the family gives no supports

    def products(self, letters: tuple = (), max_size: int = 5):
        """Products of up to max_size of the letters, all by default, and
        their inverses."""
        letters = letters or self.own + self.moved + (self.t,)
        return products_of(self.fam, letters + tuple(map(self.fam.inv, letters)), max_size)

    @property
    def elements(self):
        return self.products()


def perm_fixed_off(a, inside) -> bool:
    return all(inside(a(x)) if inside(x) else a(x) == x
               for x in range(1, max(a.support, default=0) + 3))


def matrix_fixed_off(a, inside) -> bool:
    units = [tuple(int(k == i) for k in range(a.size)) for i in range(a.size)]
    return all(a.entries[i] == units[i] == tuple(row[i] for row in a.entries)
               for i in range(a.size) if not inside(i))


def braid_fixed_off(a, inside) -> bool:
    # sigma_i crosses strands i and i + 1
    return all(inside(abs(x)) and inside(abs(x) + 1) for x in a.letters)


def aut_fixed_off(a, inside) -> bool:
    return all(all(inside(abs(x)) for x in v.letters) if inside(i) else v.letters == (i,)
               for i, v in enumerate(a.images, start=1))


def iet_fixed_off(a, inside) -> bool:
    points = (Fraction(k, 4 * a.den) for k in range(4 * a.cuts[-1] + 8))
    return all(inside(y) if inside(x) else y == x
               for x, y in ((x, ietmod.apply(a, x)) for x in points))


def wreath_oracle_mul(fam, u, v):
    """u v as WreathFamily.mul took it before ``product``: v's points moved
    by u's top, appended to u's base and merged pairwise, with the entries
    of nested levels multiplied by this oracle too and the result built
    through the validating constructor."""
    if not isinstance(fam, w.WreathFamily):
        return fam.mul(u, v)
    base = fam.base_family
    pairs = list(u.base) + [((u.top + x) % fam.n, g) for x, g in v.base]
    merged = {}
    for x, g in pairs:
        merged[x] = wreath_oracle_mul(base, merged[x], g) if x in merged else g
    return w.WreathElement(
        tuple(sorted((x, g) for x, g in merged.items() if not base.eq(g, base.identity()))),
        u.top + v.top)


def revalidates(fam, x) -> bool:
    """x passes the public validation: an int for Z; for a wreath product,
    its record, ``fam.element`` on its base and top, and each base entry
    in the base family; any other record as util.revalidates checks it."""
    if fam is w.INT_Z:
        return is_int(x)
    if isinstance(fam, w.WreathFamily):
        return (util.revalidates(x) and fam.element(x.base, x.top) == x
                and all(revalidates(fam.base_family, g) for _, g in x.base))
    return util.revalidates(x)


BATTERY_ORACLES = {  # stable family with supports -> (oracle mul, fixed_off)
    "perm": (oracle_perm_compose, perm_fixed_off),
    **dict.fromkeys(("gl", "sl", "e", "sp", "onn"), (dense_mul, matrix_fixed_off)),
    "braid": (None, braid_fixed_off),
    "aut-free": (oracle_aut_compose, aut_fixed_off),
    "iet": (oracle_iet_compose, iet_fixed_off),
}


def battery(family: str, size: int, ring=None) -> Family:
    """One pass of a stable family's battery."""
    stable = suites.STABLE[family]
    ambient, t = stable.level(size, ring)
    gens = tuple(stable.embed(g, ambient) for g in stable.generators(size, ring))
    moved = tuple(conjugate(ambient, t, g) for g in gens)
    if stable.shift:
        moved += tuple(stable.shift(g, 1) for g in gens)
    return Family(ambient, gens, moved, t, *BATTERY_ORACLES[family])


def _wreath(fam, own, moved, t) -> Family:
    return Family(fam, own, moved, t, lambda u, v: wreath_oracle_mul(fam, u, v))


def _tower(depth: int) -> Family:
    tower = w.Tower((2,) * depth)
    *own, shift = tower.generators[-1]  # the lower generators at 0, then the shift
    return _wreath(tower.family, tuple(own), (), shift)


def _closure(H, witness) -> Family:
    fam, t = H.family, witness.t
    return _wreath(fam, H.elements, tuple(conjugate(fam, t, g) for g in H.elements), t)


# element type, as test ids print it -> its family's entry
FAMILIES = {
    "perm": battery("perm", 3),
    "matrix over Z": battery("gl", 2),
    "matrix over Z/5": battery("gl", 2, 5),
    "matrix over Z/6": battery("gl", 2, 6),
    "braid word": battery("braid", 3),
    "free automorphism": battery("aut-free", 2),
    "iet": battery("iet", 2, (1, 2)),
    "pl": Family(pl.PL, tuple(pl.bump(Fraction(a, 8), Fraction(b, 8))
                              for a, b in ((2, 4), (1, 2), (3, 4))),
                 (), pl.displacement_witness("1/4", "1/2").t, oracle_pl_compose),
    "Z": Family(w.INT_Z, (1,), (), 2),
    **{f"wreath depth {d}": _tower(d) for d in (2, 3, 4)},
    **{f"closure {label}": _closure(H, witness)
       for label, (H, witness) in zip(CLOSURE_LABELS, closure_engine_inputs().values())},
}
