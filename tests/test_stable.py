"""The stable batteries: one ``suites.Stable`` record per stable family, run
by ``suites.stable_battery``.

Each record's stabilization map ``embed`` must be a homomorphism from the
level of H into the ambient level, transitive and unital, and its witness
must lie in the ambient level.  A broken witness must fail the engine's
part of the battery, and the stabilization maps reject a target size that
is not an int.  A record's claimed conjugates (``Stable.shift``) must equal
the real ones, and a wrong claim must change no report byte.
"""

import random
from collections import Counter
from functools import partial

import pytest

from ccckit import braid as braidmod
from ccckit import cli
from ccckit import freegroup as fg
from ccckit import iet as ietmod
from ccckit import matrixring as mat
from ccckit import perm as permmod
from ccckit.core import conjugate
from ccckit.suites import ENGINE, FAMILIES, STABLE, run_family, stable_battery

from util import replace, ring_id, wrong_braid_shift

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
    return f"{family}-{ring_id(ring)}-{n}"


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
            s, d = ring  # the block is n * s / d
            return ambient, ietmod.block_exchange(3 * d, n * s)
        return ambient, ambient.identity()

    for ring in stable.rings:
        report = stable_battery(replace(stable, level=broken, rings=(ring,)), 3, 0)
        engine = [c for c in report.checks if c["name"].startswith("[")]
        assert engine and any(c["status"] == "fail" for c in engine), ring


# (family, ring, n) for every record that claims its conjugates, sizes up to 8
CLAIMED = [(family, ring, n) for family, stable in STABLE.items() if stable.shift
           for ring in stable.rings for n in range(FAMILIES[family].params["size"][1], 9)]


@pytest.mark.parametrize("case", CLAIMED, ids=_ids)
def test_claimed_conjugates_equal_the_real_ones(case):
    """shift(h, p) is ^(t^p) h in the ambient group, by its eq (for braid,
    braids_equal), for every embedded generator h and p = 1, -1."""
    family, ring, n = case
    stable = STABLE[family]
    ambient, t = stable.level(n, ring)
    for g in stable.generators(n, ring):
        h = stable.embed(g, ambient)
        for p in (1, -1):
            assert ambient.eq(stable.shift(h, p), conjugate(ambient, ambient.power(t, p), h))


def _counted_braid_ops(monkeypatch) -> Counter:
    """Count BraidFamily.mul and BraidFamily.eq calls in the returned Counter."""
    counts = Counter()
    for op in ("mul", "eq"):
        def counted(self, a, b, op=op, inner=getattr(braidmod.BraidFamily, op)):
            counts[op] += 1
            return inner(self, a, b)
        monkeypatch.setattr(braidmod.BraidFamily, op, counted)
    return counts


def _braid_run(monkeypatch, counts: Counter, n: int, shift) -> tuple[str, Counter]:
    """The JSON bytes of the braid battery at size n run with shift as its
    claims, and the BraidFamily ops it made, counted by counts."""
    stable = replace(STABLE["braid"], shift=shift)
    monkeypatch.setitem(FAMILIES, "braid", replace(FAMILIES["braid"],
                                                   run=partial(stable_battery, stable)))
    counts.clear()
    return cli.render_json(run_family("braid", size=n)), Counter(counts)


@pytest.mark.parametrize("n", range(2, 9))
def test_a_wrong_braid_claim_changes_no_byte_and_only_loses_certificates(n, monkeypatch):
    """Claims shifted by n - 1 instead of n all fail their one eq each, so
    the battery writes the bytes it writes with no claims and with the
    right ones, and makes more products and eqs than with the right ones."""
    counts = _counted_braid_ops(monkeypatch)
    claimed, right = _braid_run(monkeypatch, counts, n, STABLE["braid"].shift)
    wrong_bytes, wrong = _braid_run(monkeypatch, counts, n, wrong_braid_shift)
    unclaimed, none = _braid_run(monkeypatch, counts, n, None)
    assert claimed == wrong_bytes == unclaimed
    assert wrong == none + Counter(eq=n - 1)  # one failing check per j, at p = 1 alone
    assert right["mul"] < wrong["mul"] and right["eq"] < wrong["eq"]


def test_claims_are_not_checked_without_supports(monkeypatch):
    """With every braid support unknown no claim could certify a record, so
    the engine checks none: the claims cost no op and change no byte."""
    monkeypatch.setattr(braidmod.BraidFamily, "support", lambda self, a: None)
    counts = _counted_braid_ops(monkeypatch)
    for n in (2, 3, 5):
        assert (_braid_run(monkeypatch, counts, n, STABLE["braid"].shift)
                == _braid_run(monkeypatch, counts, n, None))


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
