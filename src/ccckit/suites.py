"""Per-family verification batteries.

Each battery assembles a concrete finitely generated subgroup, constructs
the family's witness, runs the commutation engine plus any family-specific
side checks (form preservation, parity, geometric supports), and returns its
report.  The nine stable families share one battery, stable_battery, and
differ only in their Stable record.  FAMILIES declares each battery's
parameters once, for run_family and the CLI.  Everything is deterministic
given the seed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import partial
from types import MappingProxyType

from . import braid as braidmod
from . import freegroup as fg
from . import iet as ietmod
from . import matrixring as mat
from . import perm as permmod
from . import plhomeo as plmod
from . import wreath as wreathmod
from .core import (Finite, GeneratorSet, Record, VerificationReport, Witness, is_int,
                   verify_ccc)
from .rational import fmt


# ---------------------------------------------------------------------------
# stable families


ENGINE = "engine"  # the place of the engine's records in Stable.checks


class Stable(Record):
    """A stable group G = colim G_m, checked on H at level n against an
    order-2 witness t that moves block 1 to block 2.  level(n, ring) gives
    the ambient level and t in it; generators(n, ring) gives H at level n;
    embed(g, ambient) stabilizes a generator into the ambient level.  The
    battery makes one pass per ring (the matrix moduli, None for Z; the iet
    block scales, as (num, den) pairs) and records checks in order: each
    entry is called as check(report, n, label(n, ring), H, t), and ENGINE
    places the engine's records.  shift(g, p), when given, is the element that ^(t^p) g is
    claimed to equal for an embedded generator g: the engine checks the
    claim once per (p, g) and certifies that conjugate's records by the
    claimed element's support (verify_ccc), which the report never shows."""

    def __init__(self, name: str, level: Callable, generators: Callable, embed: Callable,
                 checks: tuple, rings: tuple = (None,), label: Callable = lambda n, ring: "",
                 shift: Callable | None = None):
        self.__dict__.update(name=name, level=level, generators=generators, embed=embed,
                             checks=checks, rings=rings, label=label, shift=shift)


def stable_battery(stable: Stable, size: int, seed: int) -> VerificationReport:
    report = VerificationReport(stable.name)
    for ring in stable.rings:
        ambient, t = stable.level(size, ring)
        H = GeneratorSet(ambient, tuple(stable.embed(g, ambient)
                                        for g in stable.generators(size, ring)))
        for check in stable.checks:
            if check == ENGINE:
                report.extend(verify_ccc(H, Witness(t, Finite(2)), suite=stable.name,
                                         shift=stable.shift))
            else:
                check(report, size, stable.label(size, ring), H, t)
    return report


def _square(rhs: str, report, n, label, H, t):
    fam, t2 = H.family, H.family.mul(t, t)
    report.record(f"{label}witness^2 = id", fam.is_identity(t2), fam.render(t2), rhs)


def _parity(report, n, label, H, t):
    report.record("witness parity even", (parity := permmod.parity(t)) == "even", parity, "even")


def _gl_generators(n: int, ring):
    gens = ([mat.elementary(n, 1, 2, 1, ring), mat.perm_to_matrix(permmod.block_swap(1), n, ring)]
            if n >= 2 else [])
    return gens + [mat.corner_embed(mat.matrix([[-1]], ring), n)]  # diag(-1, 1, ...)


def _sl_generators(n: int, ring):
    return [mat.elementary(n, a, b, 1, ring)
            for i in range(1, n) for a, b in ((i, i + 1), (i + 1, i))]


def _sp_generators(n: int, ring):
    # a subgroup of Sp_2n: the form matrix J, the upper unipotent
    # I + e_(1,n+1) with symmetric block, and diag(U, (U^T)^-1) for U = E_12(1)
    diag_u = (mat.mat_mul(mat.elementary(2 * n, 1, 2, 1, ring),
                          mat.elementary(2 * n, n + 2, n + 1, -1, ring))
              if n >= 2 else mat.identity_matrix(2, ring))
    return [mat.form_matrix("symplectic", 2 * n, ring),
            mat.elementary(2 * n, 1, n + 1, 1, ring), diag_u]


def _onn_generators(n: int, ring):
    gens = [mat.corner_embed(mat.matrix([[1, 0], [0, -1]], ring), 2 * n)]
    if n >= 2:
        pair_swap = permmod.perm_from_cycles([[1, 3], [2, 4]])
        gens.append(mat.perm_to_matrix(pair_swap, 2 * n, ring))
    # a hyperbolic element in the first (+, -) pair: [[a, b], [b, a]]
    # with a^2 - b^2 = 1 and b != 0, when one exists; none over Z
    hyperbolic = ring and next(((a, b) for a in range(ring) for b in range(1, ring)
                                if (a * a - b * b) % ring == 1), None)
    if hyperbolic:
        a, b = hyperbolic
        gens.append(mat.corner_embed(mat.matrix([[a, b], [b, a]], ring), 2 * n))
    return gens


def _matrix_checks(form, report, n, label, H, t):
    """t^2 = I and det t = 1; with form = (kind, witness label, generator
    label), also that t and each embedded generator preserve the form."""
    ambient = H.family
    report.record(f"{label}witness^2 = I", ambient.is_identity(ambient.mul(t, t)), "t^2", "I")
    det_t = mat.det(t)
    report.record(f"{label}det(witness) = 1", det_t == 1, str(det_t), "1")
    if form:
        kind, witness_label, generator_label = form
        report.record(f"{label}{witness_label}", mat.preserves_form(t, kind), "t^T J t", "J")
        for i, g in enumerate(H.elements):
            report.record(f"{label}embedded generator {i + 1} {generator_label}",
                          mat.preserves_form(g, kind), "g^T J g", "J")


def _matrix_stable(kind: str, generators: Callable, form: tuple | None = None) -> Stable:
    def level(n, ring):
        ambient, w = mat.classical_witness(kind, n, ring)
        return ambient, w.t
    embed = mat.sp_corner_embed if kind == "Sp" else mat.corner_embed
    return Stable(f"matrix-{kind.lower()}", level, generators,
                  lambda g, ambient: embed(g, ambient.size),
                  (ENGINE, partial(_matrix_checks, form)), rings=MATRIX_MODULI,
                  label=lambda n, ring: f"Z/{ring}: " if ring else "Z: ")


def _braid_permutation(report, n, label, H, t):
    sigma = permmod.render_cycles(braidmod.underlying_permutation(t))
    expected = permmod.render_cycles(permmod.block_swap(n))
    report.record("underlying permutation = block swap", sigma == expected, sigma, expected)


def _braid_relations(report, n, label, H, t):
    m = H.family.strands
    for u, v in ([((i, i + 1, i), (i + 1, i, i + 1)) for i in range(1, m - 1)]
                 + [((i, j), (j, i)) for i in range(1, m) for j in range(i + 2, m)]):
        lhs, rhs = braidmod.braid(m, u), braidmod.braid(m, v)
        name = " = ".join(" ".join(f"sigma_{x}" for x in w) for w in (u, v))
        report.record(name, braidmod.braids_equal(lhs, rhs), str(lhs), str(rhs))


def _aut_free_generators(n: int, ring):
    if n == 1:
        return (fg.inversion_aut(1, 1),)
    return fg.nielsen_aut(n, 1, 2), fg.permutation_aut(n, {i: i % n + 1 for i in range(1, n + 1)})


def _rotations(n: int, scale: tuple[int, int]):
    """The rotations of the block L = n * scale by L/3 and by L/2."""
    s, d = scale
    block = n * s  # L = block / d
    return (ietmod.rotation(3 * d, 3 * block, block), ietmod.rotation(2 * d, 2 * block, block))


MATRIX_MODULI = (None, 5)  # Z and Z/5; reports write Z as 0

STABLE: dict[str, Stable] = {
    "perm": Stable("perm", lambda n, ring: (permmod.PERM, permmod.block_swap(n + n % 2)),
                   lambda n, ring: (permmod.perm_from_cycles([list(range(1, n + 1))]),
                                    permmod.perm_from_cycles([[1, 2]])),
                   lambda g, ambient: g, (ENGINE, partial(_square, "e"), _parity)),
    "gl": _matrix_stable("GL", _gl_generators),
    "sl": _matrix_stable("SL", _sl_generators),
    "e": _matrix_stable("E", _sl_generators),
    "sp": _matrix_stable("Sp", _sp_generators, (
        "symplectic", "witness preserves symplectic form", "symplectic")),
    "onn": _matrix_stable("Onn", _onn_generators, (
        "split-orthogonal", "witness preserves split form", "preserves split form")),
    "braid": Stable("braid", lambda n, ring: (braidmod.BraidFamily(2 * n),
                                              braidmod.block_pass_word(n)),
                    lambda n, ring: tuple(braidmod.braid(n, (i,)) for i in range(1, n)),
                    lambda g, ambient: braidmod.stabilize(g, ambient.strands),
                    (_braid_permutation, ENGINE, _braid_relations),
                    # the block pass t carries sigma_j to sigma_(j+n), and so does t^-1
                    shift=lambda g, p: braidmod.shift(g, g.strands // 2)),
    "aut-free": Stable("aut-free", lambda n, ring: (fg.FreeAutFamily(2 * n), fg.block_swap_aut(n)),
                       _aut_free_generators, lambda g, ambient: fg.extend_rank(g, ambient.rank),
                       (ENGINE, partial(_square, "identity assignment"))),
    "iet": Stable("iet", lambda n, scale: (ietmod.IET,
                                           ietmod.block_exchange(scale[1], n * scale[0])),
                  _rotations, lambda g, ambient: g, (ENGINE, partial(_square, "id")),
                  rings=((1, 1), (1, 2), (2, 1)),
                  label=lambda n, scale: f"block {fmt(n * scale[0], scale[1])}: "),
}


# ---------------------------------------------------------------------------
# piecewise linear maps


def pl_battery(size: int, bound: int, seed: int) -> VerificationReport:
    report = VerificationReport("pl", bounded=True)
    # [a, b] in eighths: [1/4, 1/2], [1/8, 1/4] and [3/8, 1/2]
    instances = [(2, 4), (1, 2), (3, 4)][:size]
    for a, b in instances:
        H = GeneratorSet(plmod.PL, (plmod.bump(8, a, b),))
        report.extend(plmod.verify_displaced_supports(
            H, plmod.displacement_witness(8, a, b, bound)))
    return report


# ---------------------------------------------------------------------------
# wreath tower machinery


def iet_chain(depth: int = 2) -> wreathmod.WitnessChain:
    """H = <rotation of [0, 1) by 1/3> and t_i = block_exchange(2^(i-1)),
    all of order 2, for i = 1..depth."""
    H = (ietmod.rotation(3, 3, 1),)
    ts = tuple(ietmod.block_exchange(1, 2 ** i) for i in range(depth))
    return wreathmod.WitnessChain(ietmod.IET, H, ts, (2,) * depth)


def perm_chain(depth: int = 2) -> wreathmod.WitnessChain:
    """H = <(1 2 3)> and t_i = block_swap(4 * 2^(i-1)), all of order 2, for
    i = 1..depth."""
    H = (permmod.perm_from_cycles([[1, 2, 3]]),)
    ts = tuple(permmod.block_swap(4 * 2 ** i) for i in range(depth))
    return wreathmod.WitnessChain(permmod.PERM, H, ts, (2,) * depth)


def wreath_tower_battery(depth: int, samples: int, seed: int) -> VerificationReport:
    """Both chains have orders (2,) * depth, so one draw from the first
    one's tower serves both."""
    report = VerificationReport("wreath-tower", bounded=True)
    homs = [(label, wreathmod.TowerHom(chain))
            for label, chain in (("iet", iet_chain(depth)), ("perm", perm_chain(depth)))]
    drawn = homs[0][1].tower.samples(samples, seed)
    for label, f in homs:
        report.extend(wreathmod.check_hom(f, drawn), prefix=f"{label}: ")
    return report


# ---------------------------------------------------------------------------
# closure systems


def closure_battery(size: int, seed: int) -> VerificationReport:
    """Each H embedded at coordinate 0 of Gamma wr_(Z/size) Z, checked by
    the engine against the top shift x at order size: the system
    [g_i, ^(x^p) g_j] = e for 0 < |p| < size and [g_i, x^size] = e."""
    report = VerificationReport("closure")
    batteries = [
        ("perm", GeneratorSet(permmod.PERM, (permmod.perm_from_cycles([[1, 2, 3]]),
                                             permmod.perm_from_cycles([[1, 2]])))),
        ("sl2", GeneratorSet(mat.MatrixFamily(2),
                             (mat.matrix([[1, 1], [0, 1]]), mat.matrix([[0, -1], [1, 0]])))),
        ("iet", GeneratorSet(ietmod.IET, (ietmod.rotation(3, 3, 1),))),
    ]
    for label, H in batteries:
        wr = wreathmod.WreathFamily(H.family, size)
        embedded = GeneratorSet(wr, tuple(wr.element([(0, g)]) for g in H.elements))
        report.extend(verify_ccc(embedded, Witness(wr.element([], top=1), Finite(size))),
                      prefix=f"{label}: ")
    return report


# ---------------------------------------------------------------------------
# registry


class Battery(Record):
    """A battery: its run function, its parameters besides seed, each mapped
    to (default, low, high) with high None for no limit, and fixed params."""

    def __init__(self, run: Callable[..., VerificationReport],
                 params: dict[str, tuple[int, int, int | None]], description: str,
                 fixed: Mapping = MappingProxyType({})):
        self.__dict__.update(run=run, params=params, description=description, fixed=fixed)

    def domain(self, name: str) -> str:
        _, low, high = self.params[name]
        return f"= {low}" if low == high else f">= {low}" if high is None else f"in {low}..{high}"


SIZE, SIZE_2_UP = {"size": (2, 1, None)}, {"size": (2, 2, None)}  # H is empty below 2
MODULI = {"moduli": [m or 0 for m in MATRIX_MODULI]}


def _stable(family: str) -> Callable[..., VerificationReport]:
    return partial(stable_battery, STABLE[family])


FAMILIES: dict[str, Battery] = {
    "perm": Battery(_stable("perm"), SIZE_2_UP,
                    "finite-support permutations; order-2 block-swap witness (finite mode, n = 2)"),
    "gl": Battery(_stable("gl"), SIZE, "stable general linear group over Z and "
                  "Z/5; block-swap permutation witness", MODULI),
    "sl": Battery(_stable("sl"), SIZE_2_UP, "stable special linear group over Z "
                  "and Z/5; block-swap permutation witness", MODULI),
    "e": Battery(_stable("e"), SIZE_2_UP, "stable elementary matrix group over Z "
                 "and Z/5; block-swap permutation witness", MODULI),
    "sp": Battery(_stable("sp"), SIZE, "stable symplectic group; paired "
                  "block-swap witness preserving the symplectic form", MODULI),
    "onn": Battery(_stable("onn"), SIZE, "stable split orthogonal group; "
                   "witness exchanging the first half of the basis", MODULI),
    "braid": Battery(_stable("braid"), SIZE_2_UP,
                     "stable braid group, equality by Dynnikov coordinates; block-pass witness"),
    "aut-free": Battery(_stable("aut-free"), SIZE,
                        "stable automorphisms of free groups; generator block-swap witness"),
    "iet": Battery(_stable("iet"), SIZE,
                   "interval exchanges of the half line; block-exchange witness (finite mode, n = 2)"),
    "pl": Battery(pl_battery, {"size": (2, 1, 3), "bound": (8, 1, None)},
                  "compactly supported piecewise linear maps; displacement witness, bounded Z-mode"),
    "wreath-tower": Battery(wreath_tower_battery, {"depth": (2, 2, 2), "samples": (50, 1, None)},
                            "iterated wreath tower homomorphism machinery; bounded seeded checks"),
    "closure": Battery(closure_battery, {"size": (2, 2, 2)}, "equation system [g_i, ^x g_j] = e, "
                       "[g_i, x^2] = e solved in the index-2 wreath"),
}


def run_family(family: str, seed: int = 0, **given) -> dict:
    """Run one battery with defaults for the parameters not given.  A non-int
    seed, an undeclared parameter or a value outside its domain raises
    ValueError before any group operation; an unknown family, KeyError."""
    battery = FAMILIES[family]
    if not is_int(seed):
        raise ValueError(f"need an int seed, got {seed!r}")
    for name, value in given.items():
        if name not in battery.params:
            raise ValueError(f"no parameter {name!r} (takes {', '.join(battery.params)})")
        _, low, high = battery.params[name]
        if not is_int(value) or value < low or (high is not None and value > high):
            raise ValueError(f"need {name} {battery.domain(name)}, got {value!r}")
    values = {name: given.get(name, default) for name, (default, _, _) in battery.params.items()}
    report = battery.run(seed=seed, **values).to_dict()
    return {"family": family, "params": {**values, **battery.fixed}, "checks": report["checks"],
            "bounded": report["bounded"], "seed": seed, "elapsed_ms": 0}  # same run, same bytes
