import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ccckit import perm as p

from util import random_perm, sign


def _perm_of(images):
    return p.perm_from_mapping(dict(zip(range(1, len(images) + 1), images)))


perm_st = st.permutations(list(range(1, 7))).map(_perm_of)


def test_composition_is_right_to_left():
    a = p.perm_from_cycles([[1, 2]])
    b = p.perm_from_cycles([[2, 3]])
    # (a o b)(3) = a(b(3)) = a(2) = 1
    assert p.compose(a, b)(3) == 1
    assert p.render_cycles(p.compose(a, b)) == "(1 2 3)"  # 1->2, 2->3, 3->1


def test_no_fixed_points_stored():
    q = p.perm_from_mapping({1: 2, 2: 1, 5: 5})
    assert q.support == (1, 2)


def test_not_a_bijection():
    with pytest.raises(ValueError):
        p.perm_from_mapping({1: 2, 3: 2})
    with pytest.raises(ValueError):
        p.perm_from_cycles([[1, 2], [2, 3]])


@pytest.mark.parametrize("mapping", [
    ((1, 1),),            # fixed point stored
    ((2, 1), (1, 2)),     # not ascending
    ((1, 2),),            # not a bijection of its support
    ((1, 2), (1, 2)),     # point listed twice
    ((0, 1), (1, 0)),     # point 0
    ((1.5, 2.5), (2.5, 1.5)),  # non-int points
    ((True, 2), (2, True)),    # a bool is no point
])
def test_direct_construction_validates(mapping):
    with pytest.raises(ValueError):
        p.FinPerm(mapping)


@given(perm_st, perm_st)
def test_inverse_and_composition(a, b):
    assert p.compose(a, p.inverse(a)) == p.IDENTITY
    assert p.inverse(p.compose(a, b)) == p.compose(p.inverse(b), p.inverse(a))


@given(perm_st, perm_st)
def test_sign_is_multiplicative(a, b):
    assert sign(p.compose(a, b)) == sign(a) * sign(b)


def test_parity_oracles():
    assert p.parity(p.perm_from_cycles([[1, 2]])) == "odd"
    assert p.parity(p.perm_from_cycles([[1, 2, 3]])) == "even"
    assert p.parity(p.block_swap(2)) == "even"
    assert p.parity(p.block_swap(3)) == "odd"
    assert p.parity(p.IDENTITY) == "even"


def oracle_cycles(a: p.FinPerm) -> list[list[int]]:
    """The former quadratic walk, following each cycle through
    ``FinPerm.__call__``'s linear scan."""
    seen: set[int] = set()
    out: list[list[int]] = []
    for start in a.support:
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = a(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = a(x)
        out.append(cyc)
    return out


@st.composite
def sparse_perm(draw):
    points = draw(st.lists(st.integers(1, 60), unique=True, max_size=20))
    return p.perm_from_mapping(dict(zip(points, draw(st.permutations(points)))))


@settings(max_examples=300)
@given(st.one_of(perm_st, sparse_perm()))
@example(p.IDENTITY)
@example(p.block_swap(256))
def test_cycles_matches_oracle(a):
    assert p.cycles(a) == oracle_cycles(a)


def test_cycles_normal_form():
    q = p.perm_from_cycles([[3, 1, 2], [5, 4]])
    assert p.cycles(q) == [[1, 2, 3], [4, 5]]
    assert p.render_cycles(q) == "(1 2 3)(4 5)"


def test_block_swap_is_involution():
    for n in (1, 2, 5):
        t = p.block_swap(n)
        assert p.compose(t, t) == p.IDENTITY
        assert t(1) == n + 1 and t(n + 1) == 1


def test_random_perm_helper_deterministic():
    assert random_perm(random.Random(3)) == random_perm(random.Random(3))
