import itertools
import math
import operator
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ccckit import matrixring as m
from ccckit import perm as p
from ccckit.core import FamilyMismatchError, GeneratorSet, verify_ccc

from util import random_perm, revalidates, sign


def leibniz_det(a: m.SquareMatrix) -> int:
    """Independent determinant oracle: sum over permutations."""
    n = a.size
    entries = a.entries
    total = 0
    for sigma in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= entries[i][sigma[i]]
        total += prod
    return total % a.modulus if a.modulus is not None else total


def adjugate_inv(a: m.SquareMatrix) -> m.SquareMatrix:
    """Independent inverse oracle: the adjugate from n^2 cofactor
    determinants, scaled by the inverse of the determinant."""
    d = leibniz_det(a)
    if a.modulus is None:
        if d not in (1, -1):
            raise m.NotInvertibleError(f"determinant {d} is not a unit in Z")
        unit = d  # 1/d = d for d = +-1
    else:
        if math.gcd(d, a.modulus) != 1:
            raise m.NotInvertibleError(f"determinant {d} is not a unit mod {a.modulus}")
        unit = pow(d, -1, a.modulus)
    n = a.size

    def minor(i, j):
        return m.matrix([[e for c, e in enumerate(row) if c != j]
                         for r, row in enumerate(a.entries) if r != i])

    adj = [[(-1) ** (i + j) * leibniz_det(minor(j, i)) for j in range(n)] for i in range(n)]
    return m.matrix([[unit * e for e in row] for row in adj], a.modulus)


def dense_mul(a: m.SquareMatrix, b: m.SquareMatrix) -> m.SquareMatrix:
    """Independent product oracle: every entry a dot product of a dense row
    of a with a dense column of b."""
    cols = tuple(zip(*b.entries))
    return m.matrix([[sum(map(operator.mul, row, col)) for col in cols] for row in a.entries],
                    a.modulus)


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def mul_operand(draw, n, modulus):
    """A random matrix with entries biased to 0, an identity or a
    permutation matrix."""
    kind = draw(st.sampled_from(["random", "identity", "permutation"]))
    if kind == "identity":
        return m.identity_matrix(n, modulus)
    if kind == "permutation":
        images = draw(st.permutations(range(1, n + 1)))
        sigma = p.perm_from_mapping(dict(zip(range(1, n + 1), images)))
        return m.perm_to_matrix(sigma, n, modulus)
    entry = st.one_of(st.just(0), st.just(0), st.integers(-20, 20), st.integers())
    return m.matrix([[draw(entry) for _ in range(n)] for _ in range(n)], modulus)


@st.composite
def mul_case(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    modulus = draw(st.sampled_from([None, 2, 5, 6, 12]))
    return draw(mul_operand(n, modulus)), draw(mul_operand(n, modulus))


@settings(max_examples=300, deadline=None)
@given(mul_case())
def test_sparse_mul_matches_dense_oracle(pair):
    a, b = pair
    product = m.mat_mul(a, b)
    assert product == dense_mul(a, b)
    assert revalidates(product)
    for x in (a, b, product):
        assert m.matrix(x.entries, x.modulus) == x
    t = m.transpose(a)
    assert t.entries == tuple(zip(*a.entries)) and revalidates(t)
    corner = m.corner_embed(a, a.size + 2)
    assert revalidates(corner)
    assert corner.entries == tuple(row + (0, 0) for row in a.entries) + tuple(
        tuple(int(j == i) for j in range(a.size + 2)) for i in (a.size, a.size + 1))


def test_sparse_rows_are_the_nonzero_entries():
    a = m.matrix([[0, 3, 0], [0, 0, 0], [7, 0, 5]], 5)
    assert a.size == 3
    assert a.rows == (((1, 3),), (), ((0, 2),))
    assert a.entries == ((0, 3, 0), (0, 0, 0), (2, 0, 0))
    assert m.SquareMatrix(3, (((1, 3),), (), ((0, 2),)), 5) == a
    assert m.identity_matrix(2).rows == (((0, 1),), ((1, 1),))


@pytest.mark.parametrize("size,rows,modulus", [
    (2, (((1, 1), (0, 1)), ()), None),  # unsorted columns
    (2, (((0, 1), (0, 2)), ()), None),  # duplicate column
    (2, (((2, 1),), ()), None),  # column outside [0, size)
    (2, (((-1, 1),), ()), None),  # column outside [0, size)
    (2, (((0, 0),), ()), None),  # explicit 0
    (2, (((0, 5),), ()), 5),  # 0 mod 5, stored unreduced
    (2, (((0, 7),), ()), 5),  # not reduced
    (2, (((0, -1),), ()), 5),  # not reduced
    (2, (((0, 1),),), None),  # fewer rows than size
    (1, (((0, 1),), ((0, 1),)), None),  # more rows than size
    (2, (((0, 1.5),), ()), None),  # not an integer
    (2, ([(0, 1)], ()), None),  # a row that is not a tuple
    (2, (((0, 1), 2), ()), None),  # not a pair
    (1, (((0, 1),),), 1),  # modulus below 2
    (1, (((0, 1),),), 0),
])
def test_square_matrix_rejects_broken_rows(size, rows, modulus):
    with pytest.raises(ValueError):
        m.SquareMatrix(size, rows, modulus)


@pytest.mark.parametrize("build", [
    lambda: m.matrix([[1]], 0),
    lambda: m.matrix([[1]], 1),
    lambda: m.matrix([[1]], -3),
    lambda: m.form_matrix("symplectic", 2, 0),
    lambda: m.classical_witness("SL", 2, 1),
    lambda: m.identity_matrix(2, 0),
    lambda: m.elementary(2, 1, 2, 1, 0),
    lambda: m.perm_to_matrix(p.perm_from_cycles([[1, 2]]), 2, 0),
    lambda: m.matrix([[1.5]]),
    lambda: m.elementary(2, 1, 2, 1.5),
    lambda: m.matrix([[1, 0], [0, "1"]]),
    lambda: m.matrix([[True]]),
    lambda: m.matrix([[1, 0], [0]]),
    lambda: m.identity_matrix(2, 2.0),
    lambda: m.matrix([[1, 2]]),
    lambda: m.elementary(2, 1.0, 2),
    lambda: m.elementary(2.0, 1, 2),
    lambda: m.elementary(2, 1, True),
    lambda: m.elementary(2, 1, 2, 1.0),
    lambda: m.classical_witness("SL", 2.0),
    lambda: m.classical_witness("Onn", True),
    lambda: m.corner_embed(m.identity_matrix(2), 3.0),
    lambda: m.identity_matrix(-1),
    lambda: m.identity_matrix(2.0),
    lambda: m.identity_matrix(True),
    lambda: m.perm_to_matrix(p.IDENTITY, -1),
])
def test_malformed_matrix_input_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("i, j", [(0, 2), (1, 0), (4, 1)])
def test_elementary_rejects_indices_outside_range(i, j):
    # index 0 used to wrap to the last row or column; 4 raised IndexError
    with pytest.raises(ValueError):
        m.elementary(3, i, j)
    assert m.elementary(3, 3, 1).entries == ((1, 0, 0), (0, 1, 0), (1, 0, 1))


def test_elementary_matches_dense_build():
    for n, modulus in itertools.product(range(2, 5), (None, 5, 6)):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            for r in range(-3, 4):
                dense = [[int(a == b) for b in range(n)] for a in range(n)]
                dense[i - 1][j - 1] = r
                e = m.elementary(n, i, j, r, modulus)
                assert e == m.matrix(dense, modulus)
                assert revalidates(e)
    assert m.elementary(2, 1, 2, 5, 5) == m.identity_matrix(2, 5)
    assert m.elementary(3, 2, 1, 6, 6) == m.identity_matrix(3, 6)


@st.composite
def int_matrix(draw, n_max=4):
    n = draw(st.integers(min_value=1, max_value=n_max))
    rows = [[draw(small_entries) for _ in range(n)] for _ in range(n)]
    return m.matrix(rows)


@st.composite
def scattered_block(draw):
    """A random k x k block, k <= 4, invertible or singular, placed at
    random indices, mostly not contiguous, of an identity of size <= 7, over
    Z, Z/5, Z/6 or Z/12."""
    n = draw(st.integers(min_value=0, max_value=7))
    modulus = draw(st.sampled_from([None, 5, 6, 12]))
    indices = sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(n, 4)))) if n else []
    if draw(st.booleans()):  # a product of elementary matrices, so often invertible
        block = m.identity_matrix(len(indices))
        for _ in range(draw(st.integers(0, 6)) if len(indices) >= 2 else 0):
            i, j = draw(st.permutations(range(1, len(indices) + 1)))[:2]
            block = m.mat_mul(block, m.elementary(len(indices), i, j,
                                                  draw(st.integers(-3, 3))))
        block = block.entries
    else:
        block = [[draw(small_entries) for _ in indices] for _ in indices]
    dense = [[int(i == j) for j in range(n)] for i in range(n)]
    for row, i in zip(block, indices):
        for e, j in zip(row, indices):
            dense[i][j] = e
    return m.matrix(dense, modulus)


@given(st.one_of(int_matrix(), scattered_block()))
def test_det_matches_leibniz(a):
    assert m.det(a) == leibniz_det(a)


@given(int_matrix(n_max=3), int_matrix(n_max=3))
def test_det_multiplicative(a, b):
    if a.size != b.size:
        return
    assert m.det(m.mat_mul(a, b)) == m.det(a) * m.det(b)


def test_det_oracles():
    assert m.det(m.matrix([[2, 0], [0, 3]])) == 6
    assert m.det(m.matrix([[1, 2], [3, 4]])) == -2
    assert m.det(m.matrix([[0, 1], [1, 0]])) == -1
    assert m.det(m.identity_matrix(5)) == 1
    assert m.det(m.matrix([[1, 2], [3, 4]], 5)) == 3


def test_perm_matrix_det_is_sign():
    for cycles in ([[1, 2]], [[1, 2, 3]], [[1, 2], [3, 4]], [[1, 4, 2, 3]]):
        sigma = p.perm_from_cycles(cycles)
        assert m.det(m.perm_to_matrix(sigma, 4)) == sign(sigma)


def test_perm_matrix_is_a_homomorphism():
    a = p.perm_from_cycles([[1, 2, 3]])
    b = p.perm_from_cycles([[2, 4]])
    assert m.perm_to_matrix(p.compose(a, b), 4) == m.mat_mul(
        m.perm_to_matrix(a, 4), m.perm_to_matrix(b, 4))



@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=300),
       st.sampled_from([None, 2, 7]), st.integers(min_value=0, max_value=10_000))
def test_perm_matrix_matches_the_per_column_oracle(support, extra, modulus, seed):
    """perm_to_matrix reads sigma's images from one dict; the oracle asks
    sigma(i) for every column, as the definition reads."""
    sigma = random_perm(random.Random(seed), support)
    n = support + extra
    rows = [()] * n
    for i in range(1, n + 1):
        rows[sigma(i) - 1] = ((i - 1, 1),)
    built = m.perm_to_matrix(sigma, n, modulus)
    assert built.rows == tuple(rows) and built.size == n and built.modulus == modulus
    assert revalidates(built)

def bareiss(operation, a):
    """operation(a) with the monomial path switched off, so det and
    mat_inv run the elimination on the active block: the oracle for the
    monomial path."""
    with mock.patch.object(m, "_monomial", lambda a: None):
        return operation(a)


def outcome(operation, a):
    """operation(a), or the type and text of the NotInvertibleError it
    raises."""
    try:
        return operation(a)
    except m.NotInvertibleError as exc:
        return type(exc), str(exc)


# nonzero entries per ring, units and non-units: over Z only +-1 are units,
# mod 5 every nonzero residue is, mod 6 only 1 and 5
MONOMIAL_ENTRIES = {None: [-3, -2, -1, 1, 2, 3], 5: [1, 2, 3, 4], 6: [1, 2, 3, 4, 5]}


@st.composite
def monomial_matrices(draw):
    """A matrix with one nonzero entry in each row and each column: row i
    holds v_i at column sigma(i), for a random permutation sigma of a few
    points inside a larger identity."""
    modulus = draw(st.sampled_from(sorted(MONOMIAL_ENTRIES, key=str)))
    n = draw(st.integers(min_value=0, max_value=7))
    columns = draw(st.permutations(range(n)))
    values = draw(st.lists(st.sampled_from(MONOMIAL_ENTRIES[modulus]), min_size=n, max_size=n))
    rows = tuple(((c, v),) for c, v in zip(columns, values))
    size = n + draw(st.integers(min_value=0, max_value=3))
    return m.corner_embed(m.SquareMatrix(n, rows, modulus), size)


@settings(max_examples=300, deadline=None)
@given(monomial_matrices())
def test_monomial_det_and_inverse_match_the_elimination(a):
    """det and mat_inv of a monomial matrix, without elimination, equal
    the Bareiss pass's: the same value, or the same NotInvertibleError
    and text."""
    assert m._monomial(a) is not None
    d = m.det(a)
    assert d == bareiss(m.det, a)
    if a.size <= 5:
        assert d == leibniz_det(a)
    inverse = outcome(m.mat_inv, a)
    assert inverse == outcome(lambda x: bareiss(m.mat_inv, x), a)
    if isinstance(inverse, m.SquareMatrix):
        assert revalidates(inverse)
        assert m.mat_mul(a, inverse) == m.identity_matrix(a.size, a.modulus)


def test_non_monomial_matrices_take_the_elimination():
    for a in (m.matrix([[1, 1], [0, 1]]), m.matrix([[1, 0], [1, 0]]),
              m.matrix([[0, 2], [0, 3]], 5), m.elementary(3, 1, 3, 2, 6)):
        assert m._monomial(a) is None
    # one entry per row, two in one column: singular, and left to the pass
    with pytest.raises(m.NotInvertibleError, match=r"^determinant 0 is not a unit in Z$"):
        m.mat_inv(m.matrix([[1, 0], [1, 0]]))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10_000),
       st.sampled_from([None, 5, 6]))
def test_permutation_matrices_carry_sign_inverse_and_product(n, seed, modulus):
    """perm_to_matrix: S_n -> GL_n is a homomorphism: det is the sign by
    perm.parity, mat_inv is the matrix of the inverse permutation, and
    mat_mul the matrix of the composite."""
    rng = random.Random(seed)
    a, b = random_perm(rng, n), random_perm(rng, n)
    ma, mb = m.perm_to_matrix(a, n, modulus), m.perm_to_matrix(b, n, modulus)
    assert m.det(ma) == (sign(a) if modulus is None else sign(a) % modulus)
    assert m.mat_inv(ma) == m.perm_to_matrix(p.inverse(a), n, modulus)
    assert m.mat_mul(ma, mb) == m.perm_to_matrix(p.compose(a, b), n, modulus)


def test_inverse_roundtrip():
    a = m.mat_mul(m.elementary(3, 1, 2, 2), m.elementary(3, 3, 1, -1))
    assert m.mat_mul(a, m.mat_inv(a)) == m.identity_matrix(3)
    b = m.matrix([[2, 1], [1, 1]], 5)
    assert m.mat_mul(b, m.mat_inv(b)) == m.identity_matrix(2, 5)


def test_not_invertible():
    with pytest.raises(m.NotInvertibleError):
        m.mat_inv(m.matrix([[2, 0], [0, 1]]))  # det 2, not a unit in Z
    with pytest.raises(m.NotInvertibleError):
        m.mat_inv(m.matrix([[5, 0], [0, 1]], 10))
    # but det 2 is a unit mod 5
    assert m.mat_mul(m.matrix([[2, 0], [0, 1]], 5),
                     m.mat_inv(m.matrix([[2, 0], [0, 1]], 5))) == m.identity_matrix(2, 5)


@st.composite
def inverse_case(draw):
    """Sizes 0-7 over Z, Z/5, Z/6 and Z/12: a product of elementary
    matrices, optionally times diag(-1, 1, ...), a random matrix, or a
    random block at scattered indices of an identity."""
    kind = draw(st.sampled_from(["elementary", "random", "scattered"]))
    if kind == "scattered":
        return draw(scattered_block())
    n = draw(st.integers(min_value=0, max_value=6))
    modulus = draw(st.sampled_from([None, 5, 6, 12]))
    if kind == "elementary":
        a = m.identity_matrix(n, modulus)
        if n >= 2:
            for _ in range(draw(st.integers(min_value=0, max_value=10))):
                i, j = draw(st.permutations(range(1, n + 1)))[:2]
                r = draw(st.integers(min_value=-3, max_value=3))
                a = m.mat_mul(a, m.elementary(n, i, j, r, modulus))
        if n >= 1 and draw(st.booleans()):
            flip = m.matrix([[-1 if i == j == 0 else int(i == j) for j in range(n)]
                             for i in range(n)], modulus)
            a = m.mat_mul(flip, a)
        return a
    return m.matrix([[draw(small_entries) for _ in range(n)] for _ in range(n)], modulus)


def assert_inverse_matches_adjugate(a):
    try:
        expected = adjugate_inv(a)
    except m.NotInvertibleError as exc:
        with pytest.raises(m.NotInvertibleError, match=re.escape(str(exc))):
            m.mat_inv(a)
        return
    inverse = m.mat_inv(a)
    assert inverse == expected
    assert m.mat_mul(a, inverse) == m.identity_matrix(a.size, a.modulus)


@settings(max_examples=300, deadline=None)
@given(inverse_case())
def test_inverse_matches_adjugate(a):
    assert_inverse_matches_adjugate(a)


@pytest.mark.parametrize("a", [
    m.matrix([[2, 3], [3, 2]], 6),  # det 1 mod 6, yet no unit in either column
    m.matrix([[3, 4], [4, 3]], 12),
    m.matrix([[1, 2], [2, 4]]),  # singular over Z
    m.matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 5),  # singular over Z, so 0 mod 5
    m.matrix([[0, 1], [1, 0]]),  # first pivot needs a row swap
    m.matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 12),
    m.identity_matrix(0),
    m.identity_matrix(0, 6),
    m.matrix([[-1]]),
    m.matrix([[2]]),
    m.matrix([[2]], 5),
    m.matrix([[3]], 6),
])
def test_inverse_matches_adjugate_cases(a):
    assert_inverse_matches_adjugate(a)


def test_inversion_eliminates_only_the_active_block(monkeypatch):
    shapes = []
    eliminate = m._det_and_adjugate

    def recording(entries):
        shapes.append([len(row) for row in entries])
        return eliminate(entries)

    monkeypatch.setattr(m, "_det_and_adjugate", recording)
    a = m.corner_embed(m.elementary(2, 1, 2), 64)
    swap = m.perm_to_matrix(p.block_swap(32), 64)  # an involution
    for x, k in ((a, 2), (m.mat_mul(m.mat_mul(swap, a), swap), 2)):
        shapes.clear()
        m.mat_inv(x)
        assert shapes == [[k] * k]
    # monomial matrices, the identity among them, eliminate nothing
    for x in (m.identity_matrix(64), swap, m.form_matrix("symplectic", 64)):
        shapes.clear()
        m.mat_inv(x)
        m.det(x)
        assert shapes == []


@pytest.mark.parametrize("g", [
    m.elementary(2, 1, 2, 3),
    m.matrix([[0, -1], [1, 0]]),
    m.matrix([[2, 3], [3, 2]], 6),
    m.matrix([[2, 1], [1, 1]], 5),
    m.mat_mul(m.elementary(3, 3, 1, -2, 12), m.elementary(3, 1, 2, 5, 12)),
])
def test_inverse_and_det_commute_with_stabilization(g):
    assert m.mat_inv(m.corner_embed(g, 64)) == m.corner_embed(m.mat_inv(g), 64)
    assert m.det(m.corner_embed(g, 64)) == m.det(g)


def test_inverse_composite_modulus_without_unit_pivot():
    a = m.matrix([[2, 3], [3, 2]], 6)
    assert m.mat_inv(a) == a  # a^2 = [[13, 12], [12, 13]] = I mod 6
    with pytest.raises(m.NotInvertibleError, match=r"determinant 0 is not a unit in Z"):
        m.mat_inv(m.matrix([[1, 2], [2, 4]]))


def test_form_matrices():
    assert m.form_matrix("symplectic", 4).entries == (
        (0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
    assert m.form_matrix("split-orthogonal", 4).entries == (
        (1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    with pytest.raises(ValueError, match="symplectic form needs even size, got 3"):
        m.form_matrix("symplectic", 3)
    for kind, size, why in (("split-orthogonal", 2.5, "form size must be an int >= 0"),
                            ("symplectic", 4.0, "form size must be an int >= 0"),
                            ("symplectic", -2, "form size must be an int >= 0"),
                            ("split-orthogonal", True, "form size must be an int >= 0"),
                            ("split-orthogonal", "2", "form size must be an int >= 0"),
                            ("none", 2, "unknown form kind 'none'")):
        with pytest.raises(ValueError, match=why):
            m.form_matrix(kind, size)


def test_preserves_form():
    j = m.form_matrix("symplectic", 2)
    assert m.preserves_form(j, "symplectic")
    assert m.preserves_form(m.elementary(2, 1, 2, 7), "symplectic")
    assert not m.preserves_form(m.matrix([[2, 0], [0, 1]]), "symplectic")
    flip = m.matrix([[-1, 0], [0, 1]])
    assert m.preserves_form(flip, "split-orthogonal")
    with pytest.raises(ValueError, match="symplectic form needs even size, got 3"):
        m.preserves_form(m.identity_matrix(3), "symplectic")


def test_corner_embed_is_homomorphism():
    a = m.elementary(2, 1, 2, 3)
    b = m.matrix([[0, -1], [1, 0]])
    assert m.corner_embed(m.mat_mul(a, b), 4) == m.mat_mul(
        m.corner_embed(a, 4), m.corner_embed(b, 4))
    assert m.corner_embed(m.identity_matrix(2), 4) == m.identity_matrix(4)


def sp_embed(a: m.SquareMatrix) -> m.SquareMatrix:
    """The literal block stabilization Sp_2n -> Sp_2n+2: the new symplectic
    coordinate pair receives the fixed entries +1 / -1 (so the image of the
    identity differs from I at exactly those two slots).  Form preservation
    is exact; the map is a homomorphism only after correcting by the image
    of the identity, which m.sp_corner_embed does.
    """
    if a.size % 2 != 0:
        raise ValueError("symplectic matrix must have even size")
    if not m.preserves_form(a, "symplectic"):
        raise ValueError("input does not preserve the symplectic form")
    half = a.size // 2
    n = a.size + 2
    e = a.entries
    rows = [[0] * n for _ in range(n)]
    for i in range(half):
        for j in range(half):
            rows[i][j] = e[i][j]                                # M block
            rows[i][half + 1 + j] = e[i][half + j]              # N block
            rows[half + 1 + i][j] = e[half + i][j]              # R block
            rows[half + 1 + i][half + 1 + j] = e[half + i][half + j]  # S block
    rows[half][n - 1] = 1
    rows[n - 1][half] = -1
    return m.matrix(rows, a.modulus)


def test_sp_embed_twisted_law():
    """The literal symplectic stabilization preserves the form but is a
    homomorphism only after correcting by the image of the identity."""
    a = m.elementary(2, 1, 2, 3)
    b = m.matrix([[0, -1], [1, 0]])
    ea, eb = sp_embed(a), sp_embed(b)
    assert m.preserves_form(ea, "symplectic")
    assert sp_embed(m.identity_matrix(2)) != m.identity_matrix(4)
    assert sp_embed(m.mat_mul(a, b)) != m.mat_mul(ea, eb)
    corrector = m.mat_inv(sp_embed(m.identity_matrix(2)))
    assert sp_embed(m.mat_mul(a, b)) == m.mat_mul(m.mat_mul(ea, eb), corrector)


def test_sp_corner_embed_is_homomorphism():
    a = m.elementary(2, 1, 2, 3)
    b = m.matrix([[0, -1], [1, 0]])
    assert m.sp_corner_embed(m.mat_mul(a, b), 4) == m.mat_mul(
        m.sp_corner_embed(a, 4), m.sp_corner_embed(b, 4))
    assert m.sp_corner_embed(m.identity_matrix(2), 4) == m.identity_matrix(4)
    assert m.preserves_form(m.sp_corner_embed(a, 4), "symplectic")
    assert m.sp_corner_embed(a, 4) == m.mat_mul(sp_embed(a),
                                                m.mat_inv(sp_embed(m.identity_matrix(2))))


@pytest.mark.parametrize("modulus", [None, 5, 6])
def test_sp_corner_embed_matches_corrected_sp_embed(modulus):
    j = m.form_matrix("symplectic", 4, modulus)
    t = m.sp_perm_embed(p.block_swap(1), 2, modulus)
    for g in (j, t, m.mat_mul(j, t)):
        corner = m.sp_corner_embed(g, 6)
        assert revalidates(corner)
        assert corner == m.mat_mul(sp_embed(g), m.mat_inv(sp_embed(m.identity_matrix(4, modulus))))


def _sp4_samples(modulus):
    """Symplectic matrices of size 4: J, a paired swap, I + e_13, and a
    product of the three."""
    j = m.form_matrix("symplectic", 4, modulus)
    t = m.sp_perm_embed(p.block_swap(1), 2, modulus)
    u = m.elementary(4, 1, 3, 2, modulus)
    return j, t, u, m.mat_mul(m.mat_mul(j, u), t)


@pytest.mark.parametrize("modulus", [None, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sp_corner_embed_to_a_target_is_k_single_steps(modulus, k):
    for g in _sp4_samples(modulus):
        stepped = g
        for _ in range(k):
            stepped = m.sp_corner_embed(stepped, stepped.size + 2)
        embedded = m.sp_corner_embed(g, g.size + 2 * k)
        assert embedded == stepped
        assert revalidates(embedded)


@pytest.mark.parametrize("modulus", [None, 5])
def test_sp_corner_embed_multi_step_is_homomorphism(modulus):
    samples = _sp4_samples(modulus)
    for a, b in itertools.product(samples, repeat=2):
        assert m.sp_corner_embed(m.mat_mul(a, b), 10) == m.mat_mul(
            m.sp_corner_embed(a, 10), m.sp_corner_embed(b, 10))
        assert m.preserves_form(m.sp_corner_embed(a, 10), "symplectic")
    assert m.sp_corner_embed(m.identity_matrix(4, modulus), 10) == m.identity_matrix(10, modulus)


@pytest.mark.parametrize("a,n", [
    (m.identity_matrix(4), 7),  # odd
    (m.identity_matrix(4), 2),  # smaller
    (m.identity_matrix(4), 6.0),  # not an int
    (m.identity_matrix(0), False),  # a bool, although 0 would be a valid target
])
def test_sp_corner_embed_rejects_bad_target(a, n):
    with pytest.raises(ValueError):
        m.sp_corner_embed(a, n)


def test_sp_embed_rejects_non_symplectic():
    with pytest.raises(ValueError):
        sp_embed(m.matrix([[2, 0], [0, 1]]))


def test_sp_perm_embed_is_symplectic():
    t = m.sp_perm_embed(p.block_swap(2), 4)
    assert t.size == 8 and m.preserves_form(t, "symplectic")
    assert m.det(t) == 1


def test_classical_witness_shapes():
    fam, w = m.classical_witness("SL", 2)
    assert fam.size == 4 and w.mode.n == 2
    assert fam.is_identity(fam.mul(w.t, w.t))
    fam, w = m.classical_witness("Sp", 2)
    assert fam.size == w.t.size == 8
    assert m.preserves_form(w.t, "symplectic")
    fam, w = m.classical_witness("Onn", 3)
    assert fam.size == w.t.size == 12
    assert m.preserves_form(w.t, "split-orthogonal")


@pytest.mark.parametrize("family,n,size", [
    ("SL", 3, 8), ("Sp", 3, 16), ("GL", 1, 4), ("Onn", 1, 4),  # odd GL/SL/E/Sp: n + 1
    ("SL", 4, 8), ("Sp", 2, 8), ("E", 2, 4), ("Onn", 2, 8),  # even n unchanged
])
def test_classical_witness_stabilizes_odd_blocks(family, n, size):
    fam, w = m.classical_witness(family, n)
    assert fam.size == w.t.size == size
    assert fam.is_identity(fam.mul(w.t, w.t))
    assert m.det(w.t) == 1


def test_witness_battery_sl2():
    fam, w = m.classical_witness("SL", 2)
    gens = tuple(m.corner_embed(g, 4) for g in
                 (m.elementary(2, 1, 2, 1), m.elementary(2, 2, 1, 1)))
    report = verify_ccc(GeneratorSet(fam, gens), w)
    assert report.passed, report.counterexample


def test_matrix_family_checks():
    fam = m.MatrixFamily(2)
    with pytest.raises(FamilyMismatchError, match=r"size 3 mod None matrix in mat-2\(Z\)$"):
        fam.check_element(m.identity_matrix(3))
    with pytest.raises(FamilyMismatchError, match=r"size 2 mod 5 matrix in mat-2\(Z\)$"):
        fam.check_element(m.identity_matrix(2, 5))
    ambient, w = m.classical_witness("Sp", 1, 5)
    with pytest.raises(FamilyMismatchError, match=r"size 2 mod 5 matrix in mat-8\(Z/5\)$"):
        ambient.check_element(m.identity_matrix(2, 5))


def test_family_identity_built_once():
    fam = m.MatrixFamily(4, 5)
    assert fam.identity() is fam.identity()
    assert fam.identity() == m.identity_matrix(4, 5)
    assert fam.is_identity(m.identity_matrix(4, 5))
