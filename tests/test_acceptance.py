"""The acceptance battery: nine end-to-end criteria, each printing a single
pass/fail line.  All comparisons are exact (zero tolerance)."""

import json
import random
import time
from fractions import Fraction
from math import lcm

from ccckit import braid as braidmod
from ccckit import cli
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as p
from ccckit import plhomeo as pl
from ccckit import wreath as w
from ccckit.core import Finite, GeneratorSet, Witness, commutator, verify_ccc
from ccckit.suites import FAMILIES, iet_chain, perm_chain, run_family

from util import (bounded_products, coset_index, displacement_escalates, extended_image,
                  iet_at, random_iet)


def _verdict(k: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {k} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {k} failed: {label}"


def test_acceptance_1_all_family_batteries():
    start = time.monotonic()
    ok = True
    for family in FAMILIES:
        report = run_family(family, seed=0)
        ok = ok and all(c["status"] == "pass" for c in report["checks"])
    elapsed = time.monotonic() - start
    _verdict(1, f"all {len(FAMILIES)} family batteries, {elapsed:.1f}s < 60s",
             ok and elapsed < 60)


def test_acceptance_2_sym5_brute_force_oracle():
    gens = [p.perm_from_cycles([[1, 2, 3, 4, 5]]), p.perm_from_cycles([[1, 2]])]
    elements = bounded_products(p.PERM, gens, 3)
    rng = random.Random(2)
    ok = True
    for _ in range(20):
        a, b = rng.choice(elements), rng.choice(elements)
        engine = p.PERM.is_identity(commutator(p.PERM, a, b))
        oracle = all(a(b(x)) == b(a(x)) for x in range(1, 6))
        ok = ok and engine == oracle
    _verdict(2, "Sym(5) commutation vs brute-force oracle, 20 seeded pairs", ok)


def test_acceptance_3_braid_relations_and_witnesses():
    ok = True
    for n in range(2, 7):
        for i in range(1, n - 1):
            ok = ok and braidmod.braids_equal(
                braidmod.braid(n, (i, i + 1, i)), braidmod.braid(n, (i + 1, i, i + 1)))
        for i in range(1, n):
            for j in range(i + 2, n):
                ok = ok and braidmod.braids_equal(
                    braidmod.braid(n, (i, j)), braidmod.braid(n, (j, i)))
    for n in (2, 3):
        fam = braidmod.BraidFamily(2 * n)
        H = GeneratorSet(fam, tuple(braidmod.braid(2 * n, (i,)) for i in range(1, n)))
        ok = ok and verify_ccc(H, Witness(braidmod.block_pass_word(n), Finite(2))).passed
    _verdict(3, "braid relations n <= 6 and block-pass witness batteries n = 2, 3", ok)


def test_acceptance_4_depth2_tower_machinery():
    ok = True
    for chain in (iet_chain(), perm_chain()):
        f = w.TowerHom(chain)
        report = w.check_hom(f, f.tower.samples(50, 4))
        ok = ok and report.passed

        fam = f.tower.family
        transversal = [fam.element([], top=0), fam.element([(0, 1)]),
                       fam.element([], top=1), fam.element([(1, 1)], top=1)]
        # exact inclusion of the 1B factor: h at the identity coset maps to h
        one = coset_index(f.tower, transversal, fam.identity())
        for h in chain.generators:
            ok = ok and chain.family.eq(
                extended_image(f, chain.family, transversal, [(one, h)], fam.identity()), h)

    # engineered kernel instance: constant homomorphism Z -> Sym, abelian H and
    # B = 2Z, so H wr_(Z/B) Z is the wreath over Z/2 and point i is the coset of i
    wr = w.WreathFamily(p.PERM, 2)
    g = p.perm_from_cycles([[1, 2, 3]])
    u = wr.element([(0, g), (1, p.inverse(g))])
    v = wr.element([(0, p.inverse(g)), (1, g)])
    for x in (u, v):
        ok = ok and p.PERM.is_identity(
            extended_image(lambda a: p.IDENTITY, p.PERM, (0, 1), x.base, x.top))
    ok = ok and not wr.is_identity(u) and wr.is_identity(commutator(wr, u, v))
    _verdict(4, "depth-2 tower hom checks, 1B inclusion, engineered kernel pair", ok)


def test_acceptance_5_matrix_form_parity_det():
    ok = True
    for family in ("gl", "sl", "e", "sp", "onn"):
        report = run_family(family, seed=0)
        ok = ok and all(c["status"] == "pass" for c in report["checks"])
    # direct witness invariants
    for family, n in (("SL", 2), ("Sp", 2), ("Onn", 2)):
        fam, witness = mat.classical_witness(family, n)
        ok = ok and mat.det(witness.t) == 1
        ok = ok and fam.is_identity(fam.mul(witness.t, witness.t))
    for family, kind in (("Sp", "symplectic"), ("Onn", "split-orthogonal")):
        t = mat.classical_witness(family, 2)[1].t
        ok = ok and t.size == 8 and mat.preserves_form(t, kind)
    _verdict(5, "matrix batteries: form preservation, parity, determinant", ok)


def test_acceptance_6_iet_composition_invariants():
    rng = random.Random(6)
    ok = True
    for _ in range(500):
        f, g = random_iet(rng), random_iet(rng)
        h = ietmod.compose(f, g)  # construction re-validates the partition
        top = max(Fraction(m.cuts[-1], m.den) for m in (h, f, g)) + 1
        for k in (0, 1, 2):
            x = Fraction(k * top, 3)
            ok = ok and iet_at(h, x) == iet_at(f, iet_at(g, x))
        ok = ok and ietmod.compose(f, ietmod.inverse(f)) == ietmod.IDENTITY
    _verdict(6, "500 seeded IET compositions preserve invariants, f o f^-1 = id", ok)


def test_acceptance_7_pl_dual_verification():
    instances = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 4)),
                 (Fraction(3, 8), Fraction(1, 2)), (Fraction(1, 16), Fraction(1, 8)),
                 (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(2, 5), Fraction(3, 5)), (Fraction(1, 8), Fraction(7, 8)),
                 (Fraction(5, 16), Fraction(3, 8)), (Fraction(1, 2), Fraction(5, 8))]
    ok = len(instances) == 10
    for a, b in instances:
        den = lcm(a.denominator, b.denominator)
        H = GeneratorSet(pl.PL, (pl.bump(den, int(a * den), int(b * den)),))
        witness = pl.displacement_witness(den, int(a * den), int(b * den), bound=6)
        report = pl.verify_displaced_supports(H, witness)
        ok = ok and report.passed
        agree = [c for c in report.checks if "agree" in c["name"]]
        ok = ok and agree and agree[0]["status"] == "pass"
        ok = ok and all(displacement_escalates(witness.t, a, b, 6))
        ok = ok and report.checks[-1] == {
            "name": f"[{a},{b}]: displacement escalation", "status": "pass",
            "lhs": " ".join(["ok"] * 6), "rhs": "all ok", "detail": ""}
    _verdict(7, "10 PL instances: algebraic/geometric agreement and escalation", ok)


def test_acceptance_8_closure_systems():
    report = run_family("closure", seed=0)
    checks = report["checks"]
    ok = all(c["status"] == "pass" for c in checks)
    for label in ("perm", "sl2", "iet"):
        ok = ok and any(c["name"].startswith(label + ":") for c in checks)
    _verdict(8, "closure equation systems solved for perm, SL_2(Z), IET", ok)


def test_acceptance_9_byte_identical_determinism(tmp_path, capsys):
    ok = True
    for family in ("wreath-tower", "iet"):
        paths = [tmp_path / f"{family}-{i}.json" for i in (1, 2)]
        for path in paths:
            code = cli.main(["run", "--family", family, "--seed", "9",
                             "--format", "json", "--out", str(path)])
            ok = ok and code == cli.EXIT_OK
        ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
        # and the report carries no wall-clock noise
        ok = ok and json.loads(paths[0].read_text())["elapsed_ms"] == 0
    capsys.readouterr()
    _verdict(9, "same-seed CLI reports are byte-identical", ok)
