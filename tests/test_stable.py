"""The stable batteries: one ``suites.Stable`` record per stable family, run
by ``suites.stable_battery``.

Each record's stabilization map ``embed`` must be a homomorphism from the
level of H into the ambient level, transitive and unital, and its witness
must lie in the ambient level.  A broken witness must fail the engine's
part of the battery, and the stabilization maps reject a target size that
is not an int.
"""

import random

import pytest

from ccckit import braid as braidmod
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit.core import replace
from ccckit.suites import ENGINE, FAMILIES, STABLE, stable_battery

# the group of a generator at level n, where the record's generators live
LEVEL_FAMILY = {
    permmod.FinPerm: lambda g: permmod.PERM,
    mat.SquareMatrix: lambda g: mat.MatrixFamily(g.size, g.modulus),
    braidmod.BraidWord: lambda g: braidmod.BraidFamily(g.strands),
    fg.FreeAutomorphism: lambda g: fg.FreeAutFamily(g.rank),
    ietmod.IetMap: lambda g: ietmod.IET,
}

# (family, ring, n) for every record and ring, from the lowest size to 4
CASES = [(family, ring, n) for family, stable in STABLE.items() for ring in stable.rings
         for n in range(FAMILIES[family].params["size"][1], 5)]


def _ids(case):
    family, ring, n = case
    return f"{family}-{ring}-{n}"


def test_nine_families_run_the_stable_battery_on_their_record():
    assert set(STABLE) == {"perm", "gl", "sl", "e", "sp", "onn", "braid", "aut-free", "iet"}
    for family, stable in STABLE.items():
        run = FAMILIES[family].run
        assert (run.func, run.args, run.keywords) == (stable_battery, (stable,), {})


@pytest.mark.parametrize("family", sorted(STABLE))
def test_checks_place_the_engine_once(family):
    assert STABLE[family].checks.count(ENGINE) == 1


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_embed_is_a_homomorphism_on_products_of_generators(case):
    family, ring, n = case
    stable = STABLE[family]
    ambient, _ = stable.level(n, ring)
    gens = tuple(stable.generators(n, ring))
    level = LEVEL_FAMILY[type(gens[0])](gens[0])
    alphabet = gens + tuple(level.inv(g) for g in gens)
    rng = random.Random(_ids(case))
    for _ in range(20):
        a, b = (level.product(rng.choices(alphabet, k=rng.randrange(5))) for _ in range(2))
        assert ambient.eq(stable.embed(level.mul(a, b), ambient),
                          ambient.mul(stable.embed(a, ambient), stable.embed(b, ambient)))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_embed_is_transitive_and_unital(case):
    family, ring, n = case
    stable = STABLE[family]
    middle, _ = stable.level(n, ring)
    top, _ = stable.level(n + 2, ring)
    gens = tuple(stable.generators(n, ring))
    for g in gens:
        assert stable.embed(stable.embed(g, middle), top) == stable.embed(g, top)
    level = LEVEL_FAMILY[type(gens[0])](gens[0])
    assert stable.embed(level.identity(), middle) == middle.identity()


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_witness_lies_in_the_ambient_level(case):
    family, ring, n = case
    ambient, t = STABLE[family].level(n, ring)
    ambient.check_element(t)
    for g in STABLE[family].generators(n, ring):
        ambient.check_element(STABLE[family].embed(g, ambient))


@pytest.mark.parametrize("family", sorted(STABLE))
def test_a_broken_witness_fails_the_engine(family):
    """At size 3 H is non-abelian for every record but iet, so the identity
    witness fails [h_i, ^t h_j] = e (at size 2 H is cyclic for perm and
    braid, and the identity would pass).  iet's two rotations commute, so
    its broken witness is block_exchange(L/3), which moves a third of the
    block L onto the rest of it."""
    stable = STABLE[family]
    assert all(c["status"] == "pass" for c in stable_battery(stable, 3, 0).checks)

    def broken(n, ring):
        ambient, _ = stable.level(n, ring)
        if family == "iet":
            return ambient, ietmod.block_exchange(n * ring / 3)
        return ambient, ambient.identity()

    for ring in stable.rings:
        report = stable_battery(replace(stable, level=broken, rings=(ring,)), 3, 0)
        engine = [c for c in report.checks if c["name"].startswith("[")]
        assert engine and any(c["status"] == "fail" for c in engine), ring


PHI = fg.nielsen_aut(2, 1, 2)
WORD = braidmod.braid(3, (1,))
SWAP = permmod.perm_from_cycles([[1, 2]])


@pytest.mark.parametrize("call", [
    lambda: fg.extend_rank(PHI, "4"),
    lambda: fg.extend_rank(PHI, True),
    lambda: braidmod.stabilize(WORD, "5"),
    lambda: mat.perm_to_matrix(SWAP, 4.0),
    lambda: mat.perm_to_matrix(SWAP, True),
    lambda: mat.sp_perm_embed(SWAP, 4.5),
], ids=["extend_rank-str", "extend_rank-bool", "stabilize-str", "perm_to_matrix-float",
        "perm_to_matrix-bool", "sp_perm_embed-float"])
def test_stabilization_maps_reject_a_target_that_is_not_an_int(call):
    with pytest.raises(ValueError, match=r"\bint\b"):
        call()
