"""Per-family verification batteries.

Each battery assembles a concrete finitely generated subgroup, constructs
the family's witness, runs the commutation engine plus any family-specific
side checks (form preservation, parity, geometric supports), and returns its
report.  FAMILIES declares each battery's parameters once, for run_family
and the CLI.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import partial
from types import MappingProxyType

from . import braid as braidmod
from . import freegroup as fg
from . import iet as ietmod
from . import matrixring as mat
from . import perm as permmod
from . import plhomeo as plmod
from . import wreath as wreathmod
from .core import GeneratorSet, Record, VerificationReport, is_int, verify_ccc


# ---------------------------------------------------------------------------
# perm


def perm_battery(size: int, seed: int) -> VerificationReport:
    fam = permmod.PERM
    H = GeneratorSet(fam, (permmod.perm_from_cycles([list(range(1, size + 1))]),
                           permmod.perm_from_cycles([[1, 2]])))
    w = permmod.block_swap_witness(size + size % 2)  # even: stabilize odd sizes once
    report = verify_ccc(H, w, suite="perm")
    t = w.t
    report.record("witness^2 = id", fam.is_identity(fam.mul(t, t)), fam.render(fam.mul(t, t)), "e")
    report.record("witness parity even", permmod.parity(t) == "even", permmod.parity(t), "even")
    return report


# ---------------------------------------------------------------------------
# matrix families


def _matrix_generators(family: str, n: int, modulus):
    if family == "GL":
        swap = permmod.perm_from_cycles([[1, 2]])
        gens = ([mat.elementary(n, 1, 2, 1, modulus), mat.perm_to_matrix(swap, n, modulus)]
                if n >= 2 else [])
        return gens + [mat.corner_embed(mat.matrix([[-1]], modulus), n)]  # diag(-1, 1, ...)
    if family in ("SL", "E"):
        gens = []
        for i in range(1, n):
            gens.append(mat.elementary(n, i, i + 1, 1, modulus))
            gens.append(mat.elementary(n, i + 1, i, 1, modulus))
        return gens
    if family == "Sp":
        # generators of a subgroup of Sp_2n: the form matrix J, the upper
        # unipotent I + e_(1,n+1) with symmetric block, and diag(U, (U^T)^-1)
        # for U = E_12(1)
        diag_u = (mat.mat_mul(mat.elementary(2 * n, 1, 2, 1, modulus),
                              mat.elementary(2 * n, n + 2, n + 1, -1, modulus))
                  if n >= 2 else mat.identity_matrix(2, modulus))
        return [mat.form_matrix(mat.FormTag("symplectic", 2 * n), modulus),
                mat.elementary(2 * n, 1, n + 1, 1, modulus), diag_u]
    if family == "Onn":
        gens = [mat.corner_embed(mat.matrix([[1, 0], [0, -1]], modulus), 2 * n)]
        if n >= 2:
            pair_swap = permmod.perm_from_cycles([[1, 3], [2, 4]])
            gens.append(mat.perm_to_matrix(pair_swap, 2 * n, modulus))
        # a hyperbolic element in the first (+, -) pair: [[a, b], [b, a]]
        # with a^2 - b^2 = 1 and b != 0, when one exists; none over Z
        hyperbolic = modulus and next(((a, b) for a in range(modulus) for b in range(1, modulus)
                                       if (a * a - b * b) % modulus == 1), None)
        if hyperbolic:
            a, b = hyperbolic
            gens.append(mat.corner_embed(mat.matrix([[a, b], [b, a]], modulus), 2 * n))
        return gens
    raise ValueError(f"unknown matrix family {family!r}")


# family -> (form kind, witness label, generator label) of the form checks
FORM_CHECKS = {
    "Sp": ("symplectic", "witness preserves symplectic form", "symplectic"),
    "Onn": ("split-orthogonal", "witness preserves split form", "preserves split form"),
}


def matrix_battery(family: str, size: int, seed: int) -> VerificationReport:
    combined = VerificationReport(f"matrix-{family.lower()}")
    embed = mat.sp_corner_embed if family == "Sp" else mat.corner_embed
    for modulus in MATRIX_MODULI:
        ambient, w = mat.classical_witness(family, size, modulus)
        embedded = [embed(g, ambient.size) for g in _matrix_generators(family, size, modulus)]
        H = GeneratorSet(ambient, tuple(embedded))
        ring = f"Z/{modulus}" if modulus else "Z"
        combined.extend(verify_ccc(H, w, suite=f"{family}-{ring}"))
        t = w.t
        combined.record(f"{ring}: witness^2 = I",
                        ambient.is_identity(ambient.mul(t, t)), "t^2", "I")
        det_t = mat.det(t)
        combined.record(f"{ring}: det(witness) = 1", det_t == 1, str(det_t), "1")
        if family in FORM_CHECKS:
            kind, witness_label, generator_label = FORM_CHECKS[family]
            tag = mat.FormTag(kind, ambient.size)
            combined.record(f"{ring}: {witness_label}", mat.preserves_form(t, tag),
                            "t^T J t", "J")
            for i, g in enumerate(embedded):
                combined.record(f"{ring}: embedded generator {i + 1} {generator_label}",
                                mat.preserves_form(g, tag), "g^T J g", "J")
    return combined


# ---------------------------------------------------------------------------
# braid


def braid_battery(size: int, seed: int) -> VerificationReport:
    n = size
    fam = braidmod.BraidFamily(2 * n)
    w = braidmod.block_pass_witness(n)
    t = w.t
    report = VerificationReport("braid")
    sigma = permmod.render_cycles(braidmod.underlying_permutation(t))
    expected = permmod.render_cycles(permmod.block_swap(n))
    report.record("underlying permutation = block swap", sigma == expected, sigma, expected)
    gens = tuple(braidmod.braid(2 * n, (i,)) for i in range(1, n))
    H = GeneratorSet(fam, gens)
    report.extend(verify_ccc(H, w, suite="braid"))
    # braid relations at this strand count
    for i in range(1, 2 * n - 1):
        lhs = braidmod.braid(2 * n, (i, i + 1, i))
        rhs = braidmod.braid(2 * n, (i + 1, i, i + 1))
        report.record(f"sigma_{i} sigma_{i + 1} sigma_{i} = sigma_{i + 1} sigma_{i} sigma_{i + 1}",
                      braidmod.braids_equal(lhs, rhs), str(lhs), str(rhs))
    for i in range(1, 2 * n):
        for j in range(i + 2, 2 * n):
            lhs = braidmod.braid(2 * n, (i, j))
            rhs = braidmod.braid(2 * n, (j, i))
            report.record(f"sigma_{i} sigma_{j} = sigma_{j} sigma_{i}",
                          braidmod.braids_equal(lhs, rhs), str(lhs), str(rhs))
    return report


# ---------------------------------------------------------------------------
# free group automorphisms


def aut_free_battery(size: int, seed: int) -> VerificationReport:
    n = size
    rank = 2 * n
    fam = fg.FreeAutFamily(rank)
    w = fg.aut_block_swap_witness(n)
    gens = []
    if n >= 2:
        gens.append(fg.extend_rank(fg.nielsen_aut(n, 1, 2), rank))
        gens.append(fg.extend_rank(
            fg.permutation_aut(n, {i: i % n + 1 for i in range(1, n + 1)}), rank))
    else:
        gens.append(fg.extend_rank(fg.inversion_aut(1, 1), rank))
    H = GeneratorSet(fam, tuple(gens))
    report = verify_ccc(H, w, suite="aut-free")
    t2 = fam.mul(w.t, w.t)
    report.record("witness^2 = id", fam.is_identity(t2), fam.render(t2), "identity assignment")
    return report


# ---------------------------------------------------------------------------
# interval exchanges


def iet_battery(size: int, seed: int) -> VerificationReport:
    report = VerificationReport("iet")
    fam = ietmod.IET
    for block in (Fraction(size), Fraction(size) / 2, Fraction(size) * 2):
        H = GeneratorSet(fam, (ietmod.rotation(block, block / 3),
                               ietmod.rotation(block, block / 2)))
        w = ietmod.block_exchange_witness(block)
        report.extend(verify_ccc(H, w, suite=f"iet-{block}"))
        t2 = fam.mul(w.t, w.t)
        report.record(f"block {block}: witness^2 = id", fam.is_identity(t2),
                      fam.render(t2), "id")
    return report


# ---------------------------------------------------------------------------
# piecewise linear maps


def pl_battery(size: int, bound: int, seed: int) -> VerificationReport:
    report = VerificationReport("pl", bounded=True)
    instances = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 4)),
                 (Fraction(3, 8), Fraction(1, 2))][:size]
    for a, b in instances:
        H = GeneratorSet(plmod.PL, (plmod.bump(a, b),))
        w = plmod.displacement_witness(a, b, bound)
        report.extend(plmod.verify_displaced_supports(H, w.t, bound))
        esc = plmod.displacement_escalates(w.t, a, b, bound)
        report.record(f"[{a},{b}]: displacement escalation", all(esc),
                      " ".join("ok" if e else "fail" for e in esc), "all ok")
    return report


# ---------------------------------------------------------------------------
# wreath tower machinery


def iet_chain(depth: int = 2) -> wreathmod.WitnessChain:
    """H = <rotation of [0, 1) by 1/3> and t_i = block_exchange(2^(i-1)),
    all of order 2, for i = 1..depth."""
    H = (ietmod.rotation(1, Fraction(1, 3)),)
    ts = tuple(ietmod.block_exchange(2 ** i) for i in range(depth))
    return wreathmod.WitnessChain(ietmod.IET, H, ts, (2,) * depth)


def perm_chain(depth: int = 2) -> wreathmod.WitnessChain:
    """H = <(1 2 3)> and t_i = block_swap(4 * 2^(i-1)), all of order 2, for
    i = 1..depth."""
    H = (permmod.perm_from_cycles([[1, 2, 3]]),)
    ts = tuple(permmod.block_swap(4 * 2 ** i) for i in range(depth))
    return wreathmod.WitnessChain(permmod.PERM, H, ts, (2,) * depth)


def wreath_tower_battery(depth: int, samples: int, seed: int) -> VerificationReport:
    report = VerificationReport("wreath-tower", bounded=True)
    for label, chain in (("iet", iet_chain()), ("perm", perm_chain())):
        f = wreathmod.TowerHom(chain)
        H = GeneratorSet(chain.family, chain.generators)
        report.extend(wreathmod.check_hom(f, H, sample_size=samples, seed=seed),
                      prefix=f"{label}: ")
    return report


# ---------------------------------------------------------------------------
# closure systems


def closure_battery(size: int, seed: int) -> VerificationReport:
    report = VerificationReport("closure")
    batteries = [
        ("perm", GeneratorSet(permmod.PERM, (permmod.perm_from_cycles([[1, 2, 3]]),
                                             permmod.perm_from_cycles([[1, 2]])))),
        ("sl2", GeneratorSet(mat.MatrixFamily(2),
                             (mat.matrix([[1, 1], [0, 1]]), mat.matrix([[0, -1], [1, 0]])))),
        ("iet", GeneratorSet(ietmod.IET, (ietmod.rotation(1, Fraction(1, 3)),))),
    ]
    for label, H in batteries:
        report.extend(wreathmod.closure_system_witness(H), prefix=f"{label}: ")
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
        self.__post_init__()

    def domain(self, name: str) -> str:
        _, low, high = self.params[name]
        return f"= {low}" if low == high else f">= {low}" if high is None else f"in {low}..{high}"


MATRIX_MODULI = (None, 5)  # Z and Z/5; reports write Z as 0
SIZE, SIZE_2_UP = {"size": (2, 1, None)}, {"size": (2, 2, None)}  # H is empty below 2
MODULI = {"moduli": [m or 0 for m in MATRIX_MODULI]}

FAMILIES: dict[str, Battery] = {
    "perm": Battery(perm_battery, SIZE_2_UP,
                    "finite-support permutations; order-2 block-swap witness (finite mode, n = 2)"),
    "gl": Battery(partial(matrix_battery, "GL"), SIZE, "stable general linear group over Z and "
                  "Z/5; block-swap permutation witness", MODULI),
    "sl": Battery(partial(matrix_battery, "SL"), SIZE_2_UP, "stable special linear group over Z "
                  "and Z/5; block-swap permutation witness", MODULI),
    "e": Battery(partial(matrix_battery, "E"), SIZE_2_UP, "stable elementary matrix group over Z "
                 "and Z/5; block-swap permutation witness", MODULI),
    "sp": Battery(partial(matrix_battery, "Sp"), SIZE, "stable symplectic group; paired "
                  "block-swap witness preserving the symplectic form", MODULI),
    "onn": Battery(partial(matrix_battery, "Onn"), SIZE, "stable split orthogonal group; "
                   "witness exchanging the first half of the basis", MODULI),
    "braid": Battery(braid_battery, SIZE_2_UP,
                     "stable braid group, equality by Dynnikov coordinates; block-pass witness"),
    "aut-free": Battery(aut_free_battery, SIZE,
                        "stable automorphisms of free groups; generator block-swap witness"),
    "iet": Battery(iet_battery, SIZE,
                   "interval exchanges of the half line; block-exchange witness (finite mode, n = 2)"),
    "pl": Battery(pl_battery, {**SIZE, "bound": (8, 1, None)},
                  "compactly supported piecewise linear maps; displacement witness, bounded Z-mode"),
    "wreath-tower": Battery(wreath_tower_battery, {"depth": (2, 2, 2), "samples": (50, 1, None)},
                            "iterated wreath tower homomorphism machinery; bounded seeded checks"),
    "closure": Battery(closure_battery, {"size": (2, 2, 2)}, "equation system [g_i, ^x g_j] = e, "
                       "[g_i, x^2] = e solved in the index-2 wreath"),
}


def run_family(family: str, seed: int = 0, **given) -> dict:
    """Run one battery with defaults for the parameters not given.  An
    undeclared parameter or a value outside its domain raises ValueError
    before any group operation; an unknown family raises KeyError."""
    battery = FAMILIES[family]
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
