import copy
import functools
import json
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import cli, suites
from ccckit import perm as p
from ccckit import wreath as w
from ccckit import core
from ccckit.core import (FamilyMismatchError, Finite, VerificationReport, Witness, commutator,
                         commutes, conjugate, trusted, verify_ccc)
from ccckit.suites import iet_chain, perm_chain

from families import revalidates, wreath_oracle_mul
from util import (CLOSURE_LABELS, closure_engine_inputs, coset_index, extended_image,
                  factors_by_definition, image_by_definition, oracle_in_B, oracle_sample,
                  value_at)


def lamp() -> w.WreathFamily:
    return w.WreathFamily(w.INT_Z, 2)


def test_wreath_multiplication_oracle():
    fam = lamp()
    u = fam.element([(0, 1)], top=1)
    v = fam.element([(0, 5)], top=1)
    # (f, a)(g, b) = (x -> f(x) g(a^-1 x), ab)
    uv = fam.mul(u, v)
    assert uv.top == 2
    assert uv.base == ((0, 1), (1, 5))


def test_normalization():
    fam = lamp()
    u = fam.element([(0, 1), (2, 4)])  # 2 = 0 in Z/2, entries merge
    assert u.base == ((0, 5),)
    assert fam.element([(0, 1), (0, -1)]) == fam.identity()


def test_identity_values_unstored():
    fam = lamp()
    u = fam.element([(0, 0), (1, 3)])
    assert u.base == ((1, 3),)


def test_points_stored_reduced():
    fam = lamp()
    u = fam.element([(2, 4)])
    assert u.base == ((0, 4),)
    assert fam.render(u) == "{0: 4 | 0}"
    assert u == fam.element([(0, 4)]) and hash(u) == hash(fam.element([(0, 4)]))
    assert fam.element([(-1, 3), (5, 1)], top=7).base == ((1, 4),)


@pytest.mark.parametrize("pairs, top", [
    ([(0, "x")], 0),       # base entry outside Z
    ([(0, 1.5)], 0),
    ([(0.5, 1)], 0),       # point outside Z/2
    ([(0, 1)], "1"),       # top outside Z
    ([(0, True)], 0),      # a bool is no integer
    ([(True, 1)], 0),
    ([(0, 1)], True),
    ([("0", 1)], 0),       # a str is no point
    ([(0, 1)], 1.0),       # a top must be an int
    ([(0, 1)], None),
])
def test_element_validates_its_input(pairs, top):
    with pytest.raises(FamilyMismatchError):
        lamp().element(pairs, top=top)


@pytest.mark.parametrize("base", [
    [(0, 1)],            # a list, which does not hash
    ((1, 1), (0, 2)),    # points out of order
    ((0, 1), (0, 2)),    # a repeated point
    ((True, 1),),        # a bool is no point
    ((0.0, 1),),
    (("0", 1),),
    ([0, 1],),           # a pair must be a tuple
    ((0, 1, 2),),
    ((0,),),
])
def test_wreath_element_checks_its_shape(base):
    with pytest.raises(ValueError):
        w.WreathElement(base, 0)


@pytest.mark.parametrize("top", [1.5, True, "1", None])
def test_wreath_element_needs_an_int_top(top):
    """The family adds tops as ints and checks no top itself."""
    with pytest.raises(ValueError, match="top must be an int"):
        w.WreathElement(((0, 1),), top)


def test_wreath_element_leaves_the_normal_form_to_its_family():
    fam = lamp()
    u = w.WreathElement(((0, 2), (1, 1)), 0)
    assert u == fam.element([(1, 1), (0, 2)]) and hash(u) == hash(fam.element([(1, 1), (0, 2)]))
    assert fam.eq(u, fam.element([(0, 2), (1, 1)]))
    # an identity entry has the right shape; only the family knows it is one
    zero = w.WreathElement(((0, 0),), 0)
    assert fam.render(zero) == "{0: 0 | 0}" and not fam.is_identity(zero)
    assert fam.element([(0, 0)]) == fam.identity() and fam.is_identity(fam.element([(0, 0)]))


def test_nested_element_validates_base_entries():
    fam = w.Tower((2, 2, 3)).family
    with pytest.raises(FamilyMismatchError):
        fam.element([(0, 1)])  # a level-3 entry must be a level-2 element


@pytest.mark.parametrize("a, b", [(True, 1), (1, True), (1.5, 1), (1, 1.5), (True, False)])
def test_int_mul_rejects_non_integers(a, b):
    with pytest.raises(FamilyMismatchError):
        w.INT_Z.mul(a, b)


@pytest.mark.parametrize("method, args", [
    ("eq", ("a", "a")), ("eq", (True, 1)), ("eq", (1, True)), ("eq", (1.0, 1)),
    ("eq", (1, None)), ("render", (1.5,)), ("render", ("1",)), ("render", (False,)),
    ("is_identity", (0.0,)), ("is_identity", (False,)), ("is_identity", ("0",)),
], ids=lambda value: repr(value) if isinstance(value, tuple) else value)
def test_int_family_reads_integers_only(method, args):
    """eq, render and is_identity refuse a non-integer as mul and inv do,
    and as every other family refuses a value outside it."""
    with pytest.raises(FamilyMismatchError):
        getattr(w.INT_Z, method)(*args)


def test_int_family_accepts_int_subclasses_other_than_bool():
    class Int(int):
        pass

    assert w.INT_Z.mul(Int(2), 3) == w.INT_Z.mul(3, Int(2)) == 5
    assert w.INT_Z.is_identity(0) and not w.INT_Z.is_identity(Int(1))
    assert w.INT_Z.eq(Int(2), 2) and w.INT_Z.is_identity(Int(0)) and w.INT_Z.render(Int(7)) == "7"


def test_empty_product_is_the_identity():
    for fam in (w.INT_Z, lamp(), w.Tower((2, 2, 3)).family):
        assert fam.product(()) == fam.identity()
        assert fam.product(iter([])) == fam.identity()


def test_tower_family_and_generators():
    tower = w.Tower((2, 2, 3))
    assert tower.depth == 3
    assert tower.families[0] is w.INT_Z and tower.family is tower.families[2]
    gens2 = tower.generators[1]
    assert len(gens2) == 2
    gens3 = tower.generators[2]
    assert len(gens3) == 3
    assert gens3[-1] == tower.family.element([], top=1)  # the shift
    assert gens3[1] == tower.family.element([(0, gens2[1])])  # embedded at coordinate 0
    assert tower.letters == tuple((g, tower.family.inv(g)) for g in gens3)
    for bad in ((2, 1), (), [2, 2]):
        with pytest.raises(ValueError):
            w.Tower(bad)


@pytest.mark.parametrize("branching", [(2.0,), (2, 2.5)])
def test_tower_spec_rejects_non_int_orders(branching):
    """The branching orders n_2, ..., n_k above Z specify the tower too."""
    with pytest.raises(ValueError):
        w.Tower((2,) + branching)


def test_tower_rejects_levels_outside_its_depth():
    tower = w.Tower((2, 2))
    rng = random.Random(0)
    for level in (0, 3, -1, True):
        with pytest.raises(ValueError):
            tower.in_B(0, level)
        with pytest.raises(ValueError):
            tower.sample_level(rng, level)
        with pytest.raises(ValueError):
            tower.sample_B(rng, level)


@pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True])
def test_wreath_family_rejects_bad_orders(n):
    with pytest.raises(ValueError, match="need an int n >= 1"):
        w.WreathFamily(w.INT_Z, n)


NON_ELEMENTS = {"x": "x", "0": 0, "None": None, "u3": ((0, 1),)}


@pytest.mark.parametrize("u", NON_ELEMENTS.values(), ids=NON_ELEMENTS)
def test_render_rejects_non_elements(u):
    with pytest.raises(FamilyMismatchError):
        w.WreathFamily(p.PERM, 2).render(u)


def test_membership_B_level1():
    assert w.Tower((2,)).in_B(4, level=1)
    assert w.Tower((2,)).in_B(0, level=1)
    assert not w.Tower((2,)).in_B(3, level=1)
    assert not w.Tower((3,)).in_B(4, level=1)
    assert w.Tower((3,)).in_B(-6)


@pytest.mark.parametrize("n1", [2.5, 2.0, True, 1])
def test_membership_B_rejects_bad_base_orders(n1):
    with pytest.raises(ValueError):
        w.Tower((n1,))


@pytest.mark.parametrize("orders", [(2.0,), (2.5,), (True,), (1,)])
def test_witness_chain_rejects_bad_orders(orders):
    with pytest.raises(ValueError):
        w.WitnessChain(p.PERM, (p.perm_from_cycles([[1, 2]]),),
                       (p.perm_from_cycles([[3, 4]]),), orders)


@pytest.mark.parametrize("field", ["generators", "ts", "orders"])
def test_witness_chain_rejects_non_tuple_fields(field):
    fields = {"generators": (p.perm_from_cycles([[1, 2]]),), "ts": (p.block_swap(4),),
              "orders": (2,)}
    chain = w.WitnessChain(p.PERM, **fields)
    assert hash(chain) == hash(w.WitnessChain(p.PERM, **fields))
    with pytest.raises(ValueError, match=field):
        w.WitnessChain(p.PERM, **{**fields, field: list(fields[field])})


def test_membership_B_level2():
    tower = w.Tower((2, 2))
    fam = tower.family
    good = fam.element([(0, 4), (1, 7)], top=2)  # coord 0 even, top even
    assert tower.in_B(good)
    assert not tower.in_B(fam.element([(0, 3)], top=2))  # coord 0 odd
    assert not tower.in_B(fam.element([(0, 4)], top=1))  # top odd
    assert tower.in_B(fam.element([(1, 9)], top=0))  # coord 0 absent = 0


def test_validate_chain_detects_bad_witness():
    chain = w.WitnessChain(p.PERM, (p.perm_from_cycles([[1, 2]]),),
                           (p.perm_from_cycles([[2, 3]]),), (2,))
    report = w.validate_chain(chain)
    assert not report.passed


def test_validate_chain_passes_for_shipped_chains():
    for chain in (iet_chain(), perm_chain()):
        assert w.validate_chain(chain).passed


def test_chain_failing_at_level_2():
    # level 1 (t1 = block swap of 1..4 with 5..8) holds; t2 = (3 4) moves
    # the support of h = (1 2 3), so level 2 fails
    chain = w.WitnessChain(p.PERM, (p.perm_from_cycles([[1, 2, 3]]),),
                           (p.block_swap(4), p.perm_from_cycles([[3, 4]])), (2, 2))
    report = w.validate_chain(chain)
    assert not report.passed
    failing = [c["name"] for c in report.checks if c["status"] == "fail"]
    assert failing and all(name.startswith("level 2: ") for name in failing)
    assert any(c["name"].startswith("level 1: ") for c in report.checks)
    assert report.counterexample.startswith("level 2: ")
    with pytest.raises(w.ChainInvariantError) as excinfo:
        w.TowerHom(chain)
    assert str(excinfo.value).startswith("chain invariants fail: level 2: ")


def test_tower_hom_oracles():
    chain = perm_chain()
    f = w.TowerHom(chain)
    fam = f.tower.family
    t1, t2 = chain.ts
    # the shift goes to t2, the coordinate-0 copy of m goes to t1^m
    assert p.PERM.eq(f(fam.element([], top=1)), t2)
    assert p.PERM.eq(f(fam.element([(0, 1)])), t1)
    assert p.PERM.eq(f(fam.element([(0, 2)])), p.PERM.identity())  # t1 has order 2
    # mixed element: f((a_0, a_1), m) = f(a_0) * ^t2 f(a_1) * t2^m
    u = fam.element([(0, 1), (1, 1)], top=1)
    expected = p.PERM.mul(t1, p.PERM.mul(
        p.PERM.mul(t2, p.PERM.mul(t1, p.PERM.inv(t2))), t2))
    assert p.PERM.eq(f(u), expected)


class LowerEvalCountingHom(w.TowerHom):
    """A TowerHom recording each evaluation below the top level and each
    power t_level^k it builds.  A lower evaluation happens only to build a
    conjugate ^(t^p) f(a_p), so an element a evaluated at level L more
    often than there are positions p one level up means some conjugate was
    computed twice.  Evaluations below the top go through ``_image``, with
    the level given.  A build is (level, k, the products the family made
    meanwhile), listed when it ends; the family must be a ``RecordingPerm``."""

    def __init__(self, chain):
        super().__init__(chain)
        self.lower = Counter()
        self.builds = []

    def _image(self, u, level):
        if level < self.tower.depth:
            self.lower[(level, u)] += 1
        return super()._image(u, level)

    def _power(self, level, k):
        if (level, k) in self._powers:
            return super()._power(level, k)
        before = len(self.family.products)
        power = super()._power(level, k)
        self.builds.append((level, k, len(self.family.products) - before))
        return power


def binary_powering_products(k: int) -> int:
    """The products ``GroupFamily.power`` takes for t^k."""
    k = abs(k)
    return k.bit_length() + bin(k).count("1") - 2 if k else 0


def _recording_power_hom(depth=2):
    plain = perm_chain(depth)
    fam = RecordingPerm()
    f = LowerEvalCountingHom(w.WitnessChain(fam, plain.generators, plain.ts, plain.orders))
    fam.products.clear()  # the chain validation's own
    return f, plain


def test_tower_hom_computes_each_power_once():
    """Each t_level^k is built once: t^0, t and t^-1 with no product, any
    other by one product from a neighbour t^(k - 1) or t^(k + 1) built
    before it, else by binary powering, and some are built from a
    neighbour for fewer products than powering would take."""
    f, plain = _recording_power_hom()
    drawn = f.tower.samples(20, 4)
    report = w.check_hom(f, drawn)
    built = [(level, k) for level, k, _ in f.builds]
    assert built and len(built) == len(set(built))
    saved = 0
    for i, (level, k, products) in enumerate(f.builds):
        if abs(k) <= 1:
            assert products == 0
        elif {(level, k - 1), (level, k + 1)} & set(built[:i]):
            assert products == 1
            saved += binary_powering_products(k) > 1
        else:
            assert products <= binary_powering_products(k)
    assert saved
    assert f.lower and all(count <= plain.orders[level] for (level, _), count in f.lower.items())
    expected = w.check_hom(w.TowerHom(plain), drawn)
    assert report.to_dict() == expected.to_dict()


def test_a_large_top_costs_no_more_products_than_binary_powering():
    """f of the shift to the 10**6 builds t_2^(10**6) by binary powering,
    not through its neighbours, and the next top up takes one product."""
    f, plain = _recording_power_hom()
    shift = f.tower.family.element([], top=10 ** 6)
    image = f(shift)
    assert plain.family.eq(image, plain.family.power(plain.ts[1], 10 ** 6))
    [(k, products)] = [(k, products) for level, k, products in f.builds if abs(k) > 1]
    assert k == 10 ** 6 and products <= binary_powering_products(k) == 25
    # two products for the conjugate at p = 1, two for the three factors
    assert len(f.family.products) <= binary_powering_products(k) + 4
    f.builds.clear()
    f(f.tower.family.element([], top=10 ** 6 + 1))
    assert [(level, k, products) for level, k, products in f.builds] == [(2, 10 ** 6 + 1, 1)]


@functools.cache
def _hom(chain_name):
    """One TowerHom per shipped chain, shared by all examples so that its
    caches fill up across them."""
    chain = {"iet": iet_chain, "perm": perm_chain}[chain_name]()
    return w.TowerHom(chain)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["iet", "perm"]),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), max_size=4),
       st.integers(-3, 3))
def test_memoized_image_matches_definition(chain_name, pairs, top):
    f = _hom(chain_name)
    fam2 = f.tower.families[1]
    u = fam2.element(pairs, top=top)
    expected = image_by_definition(f.chain, f.tower, u, 2)
    for _ in range(2):  # the second call is a memo hit
        assert f.family.eq(f(u), expected)
    # the same element built another way hits the same entry
    again = fam2.element([(x + 2, g) for x, g in reversed(pairs)], top=top)
    assert again == u and f.family.eq(f(again), expected)


class ProductRecordingPerm(p.PermFamily):
    """The permutation family, listing the factors of each ``product``
    call; of the tower code only ``TowerHom.eval`` takes one."""

    def __init__(self):
        self.factor_tuples = []

    def product(self, elements):
        elements = tuple(elements)
        self.factor_tuples.append(elements)
        return super().product(elements)


class ImageRecordingHom(w.TowerHom):
    """A TowerHom recording each (level, element) whose image it computes,
    at any level: each miss of the level's image memo, or of the power
    memo at level 1.  It records each top-level image its ``__call__``
    returns too; ``check_hom`` reads images through ``eval``, not it."""

    def __init__(self, chain):
        super().__init__(chain)
        self.evaluated = []
        self.images = []

    def _image(self, u, level):
        memo, key = ((self._powers, (1, u)) if level == 1
                     else (self._images[level - 1], (u.base, u.top)))
        if key not in memo:
            self.evaluated.append((level, u))
        return super()._image(u, level)

    def __call__(self, u):
        image = super().__call__(u)
        self.images.append(image)
        return image


def _recording_hom():
    plain = perm_chain()
    chain = w.WitnessChain(ProductRecordingPerm(), plain.generators, plain.ts, plain.orders)
    return ImageRecordingHom(chain), plain


def test_each_factor_tuple_reaches_the_product_once():
    """Distinct tower elements often have the same factors, and each
    distinct tuple of factor values is multiplied once."""
    f, plain = _recording_hom()
    drawn = f.tower.samples(30, 2)
    report = w.check_hom(f, drawn)
    multiplied = f.family.factor_tuples
    assert multiplied and len(set(multiplied)) == len(multiplied)
    # level 1 reads the power cache; every level-2 element has its factors
    # multiplied, and they are fewer than the elements: the sample shares them
    top = {u for level, u in f.evaluated if level == 2}
    assert set(multiplied) == {factors_by_definition(plain, f.tower, u, 2) for u in top}
    assert len(multiplied) < len(top)
    expected = w.check_hom(w.TowerHom(plain), drawn)
    assert report.to_dict() == expected.to_dict()


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("chain", [iet_chain, perm_chain], ids=["iet", "perm"])
def test_memoized_images_match_the_unmemoized_definition(chain, depth):
    """Every sample of a seeded draw, and each lower-level element it
    reaches, has the image the definition gives; the one TowerHom's memos
    fill up and are read across the samples."""
    c = chain(depth)
    f = ImageRecordingHom(c)
    drawn = f.tower.samples(25, depth)
    elements = [x for triple in drawn.law for x in triple] + list(drawn.outside + drawn.members)
    for u in elements:
        assert c.family.eq(f(u), image_by_definition(c, f.tower, u, depth))
    assert len(set(f.images)) < len(set(elements))  # images repeat
    for level, u in set(f.evaluated):
        assert c.family.eq(f.eval(u, level), image_by_definition(c, f.tower, u, level))


def test_check_hom_commutes_once_per_distinct_image(monkeypatch):
    calls = []

    def counting_commutes(family, a, b):
        calls.append((a, b))
        return commutes(family, a, b)

    monkeypatch.setattr(w, "commutes", counting_commutes)
    f, plain = _recording_hom()
    samples = 40
    drawn = f.tower.samples(samples, 7)
    report = w.check_hom(f, drawn)
    assert report.passed
    # each distinct sample is evaluated once
    top = [u for level, u in f.evaluated if level == 2]
    elements = {x for triple in drawn.law for x in triple} | set(drawn.outside + drawn.members)
    assert len(top) == len(set(top)) and set(top) == elements
    oracle = w.TowerHom(plain)
    images_i = [oracle(a) for a in drawn.outside]
    images_ii = [oracle(b) for b in drawn.members]
    distinct_i, distinct_ii = len(set(images_i)), len(set(images_ii))
    assert distinct_i < samples and distinct_ii < samples
    h = len(plain.generators)
    assert len(calls) == h ** 2 * distinct_i + h * distinct_ii
    assert len(report.checks) == 3 * samples
    expected = w.check_hom(w.TowerHom(plain), drawn)
    assert report.to_dict() == expected.to_dict()


@pytest.mark.parametrize("level", [0, 3, 2.0, True, -1, "2"])
def test_tower_hom_eval_rejects_a_level_outside_its_depth(level):
    f = _hom("perm")
    u = f.tower.generators[-1][0]
    with pytest.raises(ValueError, match=r"level .* outside 1\.\.2"):
        f.eval(u, level)
    assert f.eval(1, 1) == f.chain.ts[0] and f.eval(u) == f.eval(u, 2) == f(u)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["iet", "perm"]), st.integers(2, 4), st.integers(0, 10_000))
def test_equal_elements_share_one_memo_entry(chain_name, depth, seed):
    """An element rebuilt as another object, down to its entries, hits the
    entry of the first; every entry of every level's image memo is the
    image the definition gives for the element of its fields."""
    f = w.TowerHom(CHAINS[chain_name](depth))
    fam = f.tower.family
    n = f.tower.orders[-1]
    u = f.tower.sample_level(random.Random(seed), depth)
    again = fam.element([(x + n, copy.deepcopy(g)) for x, g in reversed(u.base)], top=u.top)
    assert again == u and again is not u
    memo = f._images[depth - 1]
    image = f(u)
    entries = len(memo)
    assert f(again) is image and len(memo) == entries and memo[(u.base, u.top)] is image
    for level in range(2, depth + 1):
        for (base, top), value in f._images[level - 1].items():
            element = trusted(w.WreathElement, base, top)
            assert f.family.eq(value, image_by_definition(f.chain, f.tower, element, level))


@pytest.mark.parametrize("samples, seed", [(1, 0), (50, 1), (200, 7)])
def test_battery_renders_each_distinct_sample_once(monkeypatch, samples, seed):
    """Both chains are checked on one draw, and the draw renders each
    distinct non-member and member once for both."""
    rendered = []
    render = w.WreathFamily.render

    def counting(self, u):
        rendered.append(u)
        return render(self, u)

    monkeypatch.setattr(w.WreathFamily, "render", counting)
    suites.run_family("wreath-tower", samples=samples, seed=seed)
    drawn = w.Tower((2, 2)).samples(samples, seed)
    distinct = set(drawn.outside) | set(drawn.members)
    assert len(rendered) == len(distinct) and set(rendered) == distinct


def test_a_draw_keeps_its_texts_outside_its_fields():
    """The render memo of a draw is no field: a rendered draw still equals,
    prints and copies as its fields, and a copy renders afresh to the same
    report."""
    f = _hom("perm")
    drawn = f.tower.samples(20, 3)
    fresh = w.Tower((2, 2)).samples(20, 3)
    report = w.check_hom(f, drawn).to_dict()
    assert drawn._texts and drawn == fresh and repr(drawn) == repr(fresh)
    assert vars(drawn) == vars(fresh) and hash(drawn) == hash(fresh)
    for again in (copy.copy(drawn), copy.deepcopy(drawn), pickle.loads(pickle.dumps(drawn))):
        assert again == drawn and not hasattr(again, "_texts")
        assert w.check_hom(f, again).to_dict() == report


@pytest.mark.parametrize("depth", [2, 3])
def test_identity_conjugate_takes_no_product(depth):
    """^(t^0) f(a) is f(a): the conjugate memo keeps the lower image itself,
    and no target product is taken for it."""
    plain = perm_chain(depth)
    fam = RecordingPerm()
    f = w.TowerHom(w.WitnessChain(fam, plain.generators, plain.ts, plain.orders))
    rng = random.Random(depth)
    for _ in range(10):
        a = f.tower.sample_level(rng, depth - 1)
        lower = f.eval(a, depth - 1)
        fam.products.clear()
        assert f._conjugate(depth, 0, a) is lower and f._conjugate(depth, 0, a) is lower
        assert fam.products == []


def test_tower_hom_builds_the_tower_of_the_chain_orders():
    for chain in (iet_chain(), perm_chain(),
                  w.WitnessChain(p.PERM, (p.perm_from_cycles([[1, 2, 3]]),),
                                 (p.block_swap(4), p.block_swap(8), p.block_swap(16)),
                                 (2, 2, 2))):
        tower = w.TowerHom(chain).tower
        assert tower.orders == chain.orders and tower.depth == len(chain.orders)
        assert tower.families[0] is w.INT_Z
        for i in range(1, tower.depth):
            fam = tower.families[i]
            assert fam.base_family is tower.families[i - 1]
            assert fam.n == chain.orders[i]


def test_tower_hom_rejects_broken_chain():
    chain = w.WitnessChain(p.PERM, (p.perm_from_cycles([[1, 2]]),),
                           (p.perm_from_cycles([[2, 3]]), p.block_swap(4)), (2, 2))
    with pytest.raises(w.ChainInvariantError):
        w.TowerHom(chain)


@pytest.mark.parametrize("chain_factory", [iet_chain, perm_chain])
def test_tower_hom_refuses_an_identity_top_witness(chain_factory):
    """Negative control for the wreath-tower battery: with t_2 = e, level 2
    asks Lambda_1 = <H, t_1> to commute with its own copy, and t_1 moves
    H's support.  (t_1 = e is no control: H is cyclic, so it commutes with
    ^(t_1) H = H and every record passes.)"""
    chain = chain_factory()
    broken = w.WitnessChain(chain.family, chain.generators,
                            (chain.ts[0], chain.family.identity()), chain.orders)
    with pytest.raises(w.ChainInvariantError, match="level 2"):
        w.TowerHom(broken)


def test_check_hom_passes():
    chain = iet_chain()
    f = w.TowerHom(chain)
    report = w.check_hom(f, f.tower.samples(15, 3))
    assert report.passed, report.counterexample
    assert report.bounded


@pytest.mark.parametrize("depth, samples", [(3, 200), (4, 200), (5, 50), (6, 50)])
def test_deep_towers_pass(depth, samples):
    """t_i = block_exchange(2^(i-1)) for iet and block_swap(4 * 2^(i-1))
    for perm, all of order 2; depth 2 gives the shipped chains.  Both chains
    have orders (2,) * depth, so one draw per seed, from the first chain's
    tower, serves both, and each chain writes 3 records per sample."""
    homs = [w.TowerHom(chain(depth)) for chain in (iet_chain, perm_chain)]
    for seed in (0, 1, 7):
        drawn = homs[0].tower.samples(samples, seed)
        for f in homs:
            report = w.check_hom(f, drawn)
            assert report.passed, (depth, seed, report.counterexample)
            assert len(report.checks) == 3 * samples


def test_check_hom_is_deterministic():
    chain = perm_chain()
    f = w.TowerHom(chain)
    r1 = w.check_hom(f, f.tower.samples(10, 11)).to_dict()
    r2 = w.check_hom(f, f.tower.samples(10, 11)).to_dict()
    assert r1 == r2


def _tower_transversal(tower):
    fam = tower.family
    return [fam.element([], top=0), fam.element([(0, 1)]),
            fam.element([], top=1), fam.element([(1, 1)], top=1)]


def test_extended_hom_factor_inclusion():
    chain = perm_chain()
    f = w.TowerHom(chain)
    transversal = _tower_transversal(f.tower)
    one = coset_index(f.tower, transversal, f.tower.family.identity())
    assert one == 0
    for h in chain.generators:
        image = extended_image(f, p.PERM, transversal, [(one, h)], f.tower.family.identity())
        assert p.PERM.eq(image, h)


@pytest.mark.parametrize("chain_factory", [iet_chain, perm_chain])
def test_extended_hom_is_multiplicative(chain_factory):
    """The extension is a homomorphism on H wr_(A/B) A, whose elements are
    here (base, top) with base a dict from coset index to an element of H,
    and whose action on the cosets is read through ``coset_index``."""
    chain = chain_factory()
    f = w.TowerHom(chain)
    tower, G = f.tower, chain.family
    A = tower.family
    transversal = _tower_transversal(tower)
    rng = random.Random(1)

    def moved(a, i):  # the index of the coset of a transversal[i]
        return coset_index(tower, transversal, A.mul(a, transversal[i]))

    def mul(u, v):  # (b, a)(c, a') = (x -> b(x) c(a^-1 x), aa')
        (b, a), (c, a2) = u, v
        base = dict(b)
        for j, h in c.items():
            i = moved(a, j)
            base[i] = G.mul(base[i], h) if i in base else h
        return base, A.mul(a, a2)

    def inv(u):
        b, a = u
        a_inv = A.inv(a)
        return {moved(a_inv, i): G.inv(h) for i, h in b.items()}, a_inv

    def ext(u):
        return extended_image(f, G, transversal, sorted(u[0].items()), u[1])

    def sample():
        base = {rng.randrange(len(transversal)): rng.choice(chain.generators)
                for _ in range(rng.randint(0, 3))}
        return base, tower.sample(rng)

    for _ in range(20):
        u, v = sample(), sample()
        assert G.eq(ext(mul(u, v)), G.mul(ext(u), ext(v)))
        assert G.eq(ext(inv(u)), G.inv(ext(u)))


def test_closure_runs_the_engine_at_order_size():
    """Per H of k generators, the engine's 2k^2 records at p = 1 and -1 and
    k records [h_i, t^2]: perm 10, sl2 10, iet 3."""
    checks = suites.run_family("closure")["checks"]
    assert all(c["status"] == "pass" for c in checks)
    names = [c["name"] for c in checks]
    assert len(names) == 23
    assert names[:10] == [f"perm: [h{i}, ^(t^{q}) h{j}]" for q in (1, -1)
                          for i in (1, 2) for j in (1, 2)] + ["perm: [h1, t^2]", "perm: [h2, t^2]"]
    assert names[20:] == ["iet: [h1, ^(t^1) h1]", "iet: [h1, ^(t^-1) h1]", "iet: [h1, t^2]"]


@pytest.mark.parametrize("label", CLOSURE_LABELS)
def test_closure_negative_control(label):
    """The top shift x solves the system of the battery's H at order 2 and
    not at order 3, where [g_1, x^3] = [g_1, x] moves g_1 off coordinate
    0.  The identity witness fails perm's and sl2's H, whose generators do
    not commute.  iet's H is one rotation, so the identity passes it; a
    second generator that does not commute with it would make it a control
    (ROADMAP items 2 and 18)."""
    H, x = closure_engine_inputs()[label]
    assert x.mode == Finite(2)
    assert verify_ccc(H, x).passed
    assert not verify_ccc(H, Witness(x.t, Finite(3))).passed
    assert verify_ccc(H, Witness(H.family.identity(), Finite(2))).passed == (label == "iet")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 64), st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                                                    st.integers(0, 2 ** 70)), max_size=5))
def test_draw_helpers_take_the_bits_of_random(seed, ranges):
    """_randint(rng, a, b) returns what rng.randint(a, b) returns on a twin
    generator, and leaves both in one state, over widths of one outcome to
    past 2**64."""
    rng, twin = random.Random(seed), random.Random(seed)
    for a, width in ranges + [(0, 0), (-4, 8)]:
        assert w._randint(rng, a, a + width) == twin.randint(a, a + width)
    assert rng.getstate() == twin.getstate()


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([(2,), (2, 2), (2, 3), (3, 2, 2)]), st.integers(0, 2 ** 32))
def test_sample_draws_what_randint_and_choice_draw(orders, seed):
    tower = w.Tower(orders)
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert tower.sample(rng) == oracle_sample(tower, twin)
    assert rng.getstate() == twin.getstate()


def test_sample_B_elements_are_members():
    rng = random.Random(9)
    for orders in ((2, 2), (2, 2, 2), (2, 3, 2)):
        tower = w.Tower(orders)
        for level in range(1, tower.depth + 1):
            for _ in range(20):
                assert tower.in_B(tower.sample_B(rng, level), level)


@pytest.mark.parametrize("orders", [(2, 2), (2, 2, 2), (2, 3, 2)])
def test_in_B_agrees_with_value_at(orders):
    """in_B reads coordinate 0 off the base; the oracle reads it through
    value_at.  Top-level draws of Tower.sample and draws of sample_level
    at each level hold members and non-members alike."""
    tower, rng = w.Tower(orders), random.Random(5)
    drawn = [(tower.sample(rng), tower.depth) for _ in range(300)]
    drawn += [(tower.sample_level(rng, level), level)
              for level in range(1, tower.depth + 1) for _ in range(100)]
    verdicts = [tower.in_B(u, level) for u, level in drawn]
    assert verdicts == [oracle_in_B(tower, u, level) for u, level in drawn]
    assert set(verdicts[:300]) == {True, False}


# ---------------------------------------------------------------------------
# The point_eq-scan normal form, kept as an oracle for the keyed one


class ScanWreath(w.WreathFamily):
    """A wreath product over Z/n as it was before points were canonical:
    ``element`` keeps the points it is given, ``mul`` appends v's points
    moved by u's top and unreduced, ``normalize`` merges entries by a
    quadratic scan with a point equality predicate and sorts by point mod
    n, and ``value_at``/``eq`` look points up through that predicate.

    Raw points may be negative or repeat mod n, so a base sorted by point
    mod n need not ascend as ints; ``WreathElement`` refuses such a base,
    and ``normalize`` builds its results with ``core.trusted``, which
    skips that check.  For the same reason ``check_element`` checks the
    type alone, not that the points lie in 0..n-1."""

    def check_element(self, a):
        if not isinstance(a, w.WreathElement):
            raise FamilyMismatchError(f"not a WreathElement: {a!r}")

    def point_eq(self, x, y):
        return x % self.n == y % self.n

    def normalize(self, pairs, top):
        merged = []
        for x, g in pairs:
            for i, (y, h) in enumerate(merged):
                if self.point_eq(x, y):
                    merged[i] = (y, self.base_family.mul(h, g))
                    break
            else:
                merged.append((x, g))
        cleaned = [(x, g) for x, g in merged if not self.base_family.is_identity(g)]
        cleaned.sort(key=lambda item: item[0] % self.n)
        return trusted(w.WreathElement, tuple(cleaned), top)

    def element(self, pairs, top=0):
        return self.normalize(list(pairs), top)

    def mul(self, u, v):
        return self.normalize(list(u.base) + [(u.top + x, g) for x, g in v.base], u.top + v.top)

    def value_at(self, u, x):
        for y, g in u.base:
            if self.point_eq(x, y):
                return g
        return self.base_family.identity()

    def eq(self, u, v):
        if u.top != v.top or len(u.base) != len(v.base):
            return False
        return all(self.base_family.eq(g, self.value_at(v, x)) for x, g in u.base)


def _raw_tower_element(level):
    """Level-1 ints, or (pairs, top) with points in -4..7, so that points
    repeat and go unreduced mod every branching order, and with zero and
    empty entries, which are identities."""
    if level == 1:
        return st.integers(-3, 3)
    pairs = st.lists(st.tuples(st.integers(-4, 7), _raw_tower_element(level - 1)), max_size=4)
    return st.tuples(pairs, st.integers(-3, 3))


def _build(fams, raw):
    """The element ``raw`` describes, built with fams[k] at level k + 1."""
    if len(fams) == 1:
        return raw
    pairs, top = raw
    return fams[-1].element([(x, _build(fams[:-1], g)) for x, g in pairs], top=top)


def _reduced(branching, u):
    """u with every point reduced mod its order and every base sorted."""
    if not branching:
        return u
    n = branching[-1]
    return w.WreathElement(
        tuple(sorted((x % n, _reduced(branching[:-1], g)) for x, g in u.base)), u.top)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_keyed_normal_form_matches_scan_oracle(data):
    branching = data.draw(st.sampled_from([(2,), (3,), (2, 3), (3, 2)]))
    tower = w.Tower((2,) + branching)
    fams = list(tower.families)
    oracles = [w.INT_Z]
    for n in branching:
        oracles.append(ScanWreath(oracles[-1], n))
    raw = _raw_tower_element(tower.depth)
    ru, rv = data.draw(raw), data.draw(raw)
    fam, oracle = fams[-1], oracles[-1]
    u, v = _build(fams, ru), _build(fams, rv)
    ou, ov = _build(oracles, ru), _build(oracles, rv)
    assert u == _reduced(branching, ou) and v == _reduced(branching, ov)
    assert fam.mul(u, v) == _reduced(branching, oracle.mul(ou, ov))
    assert fam.inv(u) == _reduced(branching, oracle.inv(ou))
    assert fam.eq(u, v) == oracle.eq(ou, ov) == (u == v)
    back = fam.mul(fam.mul(u, v), fam.inv(v))
    assert fam.eq(back, u) and oracle.eq(back, ou)
    shift = fam.element([], top=1)
    moved = fam.mul(fam.mul(shift, u), fam.inv(shift))  # the same entries, at moved points
    assert fam.eq(u, moved) == oracle.eq(u, moved)
    for x in range(-4, 8):
        assert value_at(fam, u, x) == _reduced(branching[:-1], oracle.value_at(ou, x))


# ---------------------------------------------------------------------------
# The one-merge product against the pairwise product (families.wreath_oracle_mul)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_product_matches_pairwise_oracle(data):
    orders = data.draw(st.sampled_from([(2, 2), (2, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]))
    tower = w.Tower(orders)
    fams = list(tower.families)
    fam = fams[-1]
    raws = data.draw(st.lists(_raw_tower_element(tower.depth), max_size=8))
    word = [_build(fams, raw) for raw in raws]
    expected = functools.reduce(functools.partial(wreath_oracle_mul, fam), word, fam.identity())
    got = fam.product(word)
    assert got == expected and revalidates(fam, got)
    if len(word) >= 2:
        assert fam.mul(word[0], word[1]) == wreath_oracle_mul(fam, word[0], word[1])


# ---------------------------------------------------------------------------
# check_hom against a reference loop without memos


def reference_check_hom(f, sample_size=50, seed=0):
    """check_hom with no memos: per sample one target product f(u)f(v),
    every verdict decided afresh and every value rendered afresh."""
    rng = random.Random(seed)
    fam = f.family
    hs = f.chain.generators
    tower = f.tower
    a_fam = tower.family
    report = VerificationReport("tower-hom", bounded=True)
    for k in range(sample_size):
        u, v = tower.sample(rng), tower.sample(rng)
        lhs = f(a_fam.mul(u, v))
        rhs = fam.mul(f(u), f(v))
        report.record(f"f(uv) = f(u)f(v) [{k}]", fam.eq(lhs, rhs), fam.render(lhs),
                      fam.render(rhs))
    found = attempts = 0
    while found < sample_size and attempts < 100 * sample_size:
        attempts += 1
        a = tower.sample(rng)
        if tower.in_B(a):
            continue
        fa = f(a)
        ok = all(fam.is_identity(commutator(fam, h, conjugate(fam, fa, h2)))
                 for h in hs for h2 in hs)
        report.record(f"(i) [H, ^f(a) H] = 1, a outside B [{found}]", ok,
                      "all generator commutators", "e", detail=f"a = {a_fam.render(a)}")
        found += 1
    if found < sample_size:
        report.record("(i) enough non-member samples", False, str(found), str(sample_size))
    for k in range(sample_size):
        b = tower.sample_B(rng, tower.depth)
        fb = f(b)
        ok = all(fam.is_identity(commutator(fam, h, fb)) for h in hs)
        report.record(f"(ii) [H, f(b)] = 1, b in B [{k}]", ok,
                      "all generator commutators", "e", detail=f"b = {a_fam.render(b)}")
    return report


CHAINS = {"iet": iet_chain, "perm": perm_chain}


def test_chains_of_depth_2_are_the_shipped_chains():
    from ccckit.iet import block_exchange
    assert iet_chain(2).ts == (block_exchange(1, 1), block_exchange(1, 2))
    assert perm_chain(2).ts == (p.block_swap(4), p.block_swap(8))
    assert perm_chain(4).ts[-1] == p.block_swap(32) and perm_chain(4).orders == (2,) * 4
    for name in CHAINS:
        assert CHAINS[name]() == CHAINS[name](2)


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(CHAINS))
def test_check_hom_matches_reference_loop(name, depth):
    """One draw from the tower of the named chain serves both chains: each
    chain's report on it is the report of the reference loop, which draws
    on its own."""
    homs = [w.TowerHom(CHAINS[chain](depth)) for chain in sorted(CHAINS)]
    tower = homs[sorted(CHAINS).index(name)].tower
    for seed in range(4):
        for samples in (1, 50):
            drawn = tower.samples(samples, seed)
            for f in homs:
                report = w.check_hom(f, drawn)
                assert report.to_dict() == reference_check_hom(f, samples, seed).to_dict()
                assert report.passed and len(report.checks) == 3 * samples


def _counting_samples(monkeypatch):
    """Patch Tower.sample to count its calls; returns the counter."""
    calls = Counter()
    sample = w.Tower.sample

    def counting(self, rng):
        calls["sample"] += 1
        return sample(self, rng)

    monkeypatch.setattr(w.Tower, "sample", counting)
    return calls


@pytest.mark.parametrize("samples", [1, 50])
def test_wreath_tower_battery_draws_once(monkeypatch, samples):
    """The battery checks two chains on one draw, so it samples the tower as
    often as one chain's reference loop does."""
    calls = _counting_samples(monkeypatch)
    suites.run_family("wreath-tower", samples=samples)
    battery = calls.pop("sample")
    reference_check_hom(w.TowerHom(perm_chain()), samples, 0)
    assert battery == calls["sample"] >= 3 * samples


def test_missing_non_members_fail_each_chain(monkeypatch, tmp_path):
    """With every word in B the draw finds no non-member, and each chain's
    report carries the failing shortfall record; the CLI writes the report
    and exits 1."""
    monkeypatch.setattr(w.Tower, "in_B", lambda self, u, level=None: True)
    samples = 4
    drawn = w.Tower((2, 2)).samples(samples, 0)
    assert drawn.outside == () and len(drawn.law) == len(drawn.members) == samples
    shortfall = {"name": "(i) enough non-member samples", "status": "fail",
                 "lhs": "0", "rhs": str(samples), "detail": ""}
    for chain in CHAINS.values():
        f = w.TowerHom(chain())
        report = w.check_hom(f, drawn)
        assert not report.passed and shortfall in report.checks
        assert len(report.checks) == 2 * samples + 1
    out = tmp_path / "report.json"
    assert cli.main(["run", "--family", "wreath-tower", "--samples", str(samples),
                     "--format", "json", "--out", str(out)]) == cli.EXIT_VERIFICATION_FAILURE
    checks = json.loads(out.read_text())["checks"]
    for label in CHAINS:
        assert {**shortfall, "name": f"{label}: {shortfall['name']}"} in checks


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "3", None])
def test_samples_rejects_a_bad_sample_size(bad):
    with pytest.raises(ValueError, match="sample_size"):
        w.Tower((2, 2)).samples(bad, 0)


def test_check_hom_rejects_an_empty_generator_set():
    """check_hom reads H off the chain, and the TowerHom of a chain with no
    generators is refused when it is built, so check_hom never meets an
    empty H."""
    shipped = perm_chain()
    chain = w.WitnessChain(p.PERM, (), shipped.ts, shipped.orders)
    with pytest.raises(ValueError, match="empty generator set: nothing to check"):
        w.TowerHom(chain)


def test_check_hom_rejects_samples_of_another_tower():
    f = w.TowerHom(perm_chain())
    for orders in ((2, 2, 2), (2, 3)):
        with pytest.raises(ValueError, match="orders"):
            w.check_hom(f, w.Tower(orders).samples(2, 0))
    with pytest.raises(ValueError, match="TowerSamples"):
        w.check_hom(f, 50)


class RecordingPerm(p.PermFamily):
    """The permutation family, listing the values it renders and the
    operands of each product made while ``quiet`` is 0."""

    def __init__(self):
        self.quiet = 0
        self.products = []
        self.rendered = []

    def mul(self, a, b):
        if not self.quiet:
            self.products.append((a, b))
        return super().mul(a, b)

    def render(self, a):
        self.rendered.append(a)
        return super().render(a)


class QuietHom(w.TowerHom):
    """A TowerHom whose evaluations leave no products on the record.
    ``check_hom`` evaluates only through ``eval``, on a memo miss."""

    def eval(self, u, level=None):
        self.family.quiet += 1
        try:
            return super().eval(u, level)
        finally:
            self.family.quiet -= 1


def test_check_hom_multiplies_and_renders_each_distinct_value_once(monkeypatch):
    def quietly(fn):
        def wrapped(family, *args):
            family.quiet += 1
            try:
                return fn(family, *args)
            finally:
                family.quiet -= 1
        return wrapped

    monkeypatch.setattr(w, "commutes", quietly(commutes))
    monkeypatch.setattr(w, "conjugate", quietly(conjugate))
    plain = perm_chain()
    fam = RecordingPerm()
    f = QuietHom(w.WitnessChain(fam, plain.generators, plain.ts, plain.orders))
    fam.products.clear()  # the chain validation's own
    fam.rendered.clear()
    sample_renders = []
    a_render = f.tower.family.render

    def counting_render(u):
        sample_renders.append(u)
        return a_render(u)

    monkeypatch.setattr(f.tower.family, "render", counting_render)
    samples = 60
    drawn = f.tower.samples(samples, 5)
    report = w.check_hom(f, drawn)
    assert report.passed
    # f(uv), f(u), f(v) per law sample, in that order, from another hom
    oracle = w.TowerHom(plain)
    law = [oracle(x) for u, v, uv in drawn.law for x in (uv, u, v)]
    pairs = list(zip(law[1::3], law[2::3]))
    assert len(set(pairs)) < samples  # the sample repeats pairs
    assert fam.products == list(dict.fromkeys(pairs))
    # one rendering per distinct image and per distinct sample
    law_texts = {text for c in report.checks[:samples] for text in (c["lhs"], c["rhs"])}
    assert len(fam.rendered) == len(set(fam.rendered)) == len(law_texts)
    assert len(set(law[0::3])) < samples
    details = [c["detail"] for c in report.checks[samples:]]
    assert len(sample_renders) == len(set(sample_renders)) == len(set(details)) < len(details)
    monkeypatch.undo()
    expected = w.check_hom(w.TowerHom(plain), drawn)
    assert report.to_dict() == expected.to_dict()
