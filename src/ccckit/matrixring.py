"""Exact square matrices over Z and Z/m, with the stabilized classical
groups' corner/symplectic embeddings, bilinear form checks, and order-2
block-swap witnesses.

Matrices are stored sparsely.  The stable groups are direct limits
GL(R) = colim GL_n(R), so each element differs from the identity in a
finite block, and most entries of the batteries' matrices are 0.  A
`SquareMatrix(size, rows, modulus)` keeps in rows[i] the nonzero entries of
row i as (column, value) pairs, columns strictly increasing, values reduced
for the modulus.  That form is unique, so equal matrices have equal fields.
Products, transposes and embeddings work on these rows and touch only
nonzeros.  The read-only `entries` property builds the dense rows for the
code that reads every entry, such as rendering.

A monomial matrix, with one nonzero entry in each row and each column,
is inverted and has its determinant taken in O(n): the determinant is the
sign of its permutation times the product of its entries, and the inverse
transposes the pattern and inverts each entry.  The batteries' witnesses,
the forms J and the permutation matrices are all monomial.  Every other
matrix goes through one fraction-free (Bareiss) Gauss-Jordan pass over Z
on the integer lift of the active block: the indices S where the matrix
differs from the identity, since A = A_S (+) I gives det(A) = det(A_S)
and A^-1 = A_S^-1 (+) I.  The pass yields det(A_S) and adj(A_S)
together, so all intermediate arithmetic stays exact and integral.
Modular determinants reduce the integer determinant, since reduction mod m
is a ring homomorphism.

`SquareMatrix` and `matrix` validate what they are given.  The builders
`identity_matrix`, `elementary`, `perm_to_matrix` and `form_matrix` check
their parameters, then build results that are valid by construction
through `core.trusted`, as the operations and embeddings do.  Bad input
raises ValueError.  A form is named by its kind, "symplectic" or
"split-orthogonal", and has the size of the matrix it is checked on; a
`MatrixFamily` is named by its size and modulus.
"""

from __future__ import annotations

import math

from . import perm as permmod
from .core import (CcckitError, FamilyMismatchError, GroupFamily, Record, Witness, Finite,
                   is_int, runs, trusted)


class NotInvertibleError(CcckitError):
    pass


def _reduce(v: int, modulus: int | None) -> int:
    return v % modulus if modulus is not None else v


def _check_modulus(modulus) -> None:
    """Runs before any reduction, so a bad modulus never reaches `%`."""
    if modulus is not None and not (is_int(modulus) and modulus >= 2):
        raise ValueError(f"modulus must be an integer >= 2, got {modulus!r}")


Row = tuple[tuple[int, int], ...]


class SquareMatrix(Record):
    """A size x size matrix; rows[i] holds row i's nonzero entries as
    (column, value) pairs, columns strictly increasing in [0, size) and
    values nonzero and reduced for the modulus."""

    def __init__(self, size: int, rows: tuple[Row, ...], modulus: int | None = None):
        self.__dict__.update(size=size, rows=rows, modulus=modulus)

    def __post_init__(self):
        _check_modulus(self.modulus)
        n = self.size
        if not (is_int(n) and isinstance(self.rows, tuple) and len(self.rows) == n):
            raise ValueError(f"a size {n!r} matrix needs a tuple of {n!r} rows")
        for i, row in enumerate(self.rows):
            if not isinstance(row, tuple):
                raise ValueError(f"row {i} is not a tuple of (column, value) pairs")
            last = -1
            for pair in row:
                if not (isinstance(pair, tuple) and len(pair) == 2):
                    raise ValueError(f"row {i}: {pair!r} is not a (column, value) pair")
                column, value = pair
                if not (is_int(column) and last < column < n):
                    raise ValueError(f"row {i}: columns must increase strictly within "
                                     f"[0, {n}), got {column!r} after {last}")
                if not is_int(value) or value == 0 or value != _reduce(value, self.modulus):
                    raise ValueError(f"row {i}: entry {value!r} is not a nonzero integer "
                                     f"reduced mod {self.modulus}")
                last = column

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows."""
        out = []
        for row in self.rows:
            dense = [0] * self.size
            for column, value in row:
                dense[column] = value
            out.append(tuple(dense))
        return tuple(out)

    def __str__(self) -> str:
        return render_matrix(self)


def _integer(e) -> int:
    if not is_int(e):  # int(1.5) would silently truncate
        raise ValueError(f"matrix entries must be integers, got {e!r}")
    return e


def matrix(rows, modulus: int | None = None) -> SquareMatrix:
    """The matrix with the given dense integer rows, reduced for the modulus."""
    _check_modulus(modulus)
    dense = [[_integer(e) for e in row] for row in rows]
    n = len(dense)
    if any(len(row) != n for row in dense):
        raise ValueError("matrix must be square")
    return SquareMatrix(n, tuple(tuple((c, v) for c, e in enumerate(row)
                                       if (v := _reduce(e, modulus))) for row in dense),
                        modulus)


def identity_matrix(n: int, modulus: int | None = None) -> SquareMatrix:
    if not (is_int(n) and n >= 0):
        raise ValueError(f"matrix size must be an int >= 0, got {n!r}")
    _check_modulus(modulus)
    return trusted(SquareMatrix, n, tuple(((i, 1),) for i in range(n)), modulus)


def _check_compat(a: SquareMatrix, b: SquareMatrix) -> None:
    if a.size != b.size or a.modulus != b.modulus:
        raise FamilyMismatchError(
            f"incompatible matrices: size {a.size} mod {a.modulus} vs size {b.size} mod {b.modulus}")


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    """Row i of a*b is the sum of x * (row k of b) over the pairs (k, x) of
    row i of a, accumulated by column; the work is one multiply-add per
    pair of matching nonzeros."""
    _check_compat(a, b)
    modulus = a.modulus
    b_rows = b.rows
    out = []
    for row in a.rows:
        if len(row) == 1 and row[0][1] == 1:  # a unit-vector row picks one row of b
            out.append(b_rows[row[0][0]])
            continue
        acc: dict[int, int] = {}
        for k, x in row:
            for j, y in b_rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        if modulus is None:
            out.append(tuple(sorted(item for item in acc.items() if item[1])))
        else:
            out.append(tuple(sorted((j, r) for j, v in acc.items() if (r := v % modulus))))
    return trusted(SquareMatrix, a.size, tuple(out), modulus)


def transpose(a: SquareMatrix) -> SquareMatrix:
    cols: list[list[tuple[int, int]]] = [[] for _ in range(a.size)]
    for i, row in enumerate(a.rows):  # rows in order, so each column comes out sorted
        for j, value in row:
            cols[j].append((i, value))
    return trusted(SquareMatrix, a.size, tuple(map(tuple, cols)), a.modulus)


def _active_indices(a: SquareMatrix) -> list[int]:
    """The sorted indices S where a differs from the identity: every row i
    other than e_i, with that row's columns.  Outside S, row i and column i
    are both e_i, so a = a[S, S] (+) I up to the order of the basis."""
    active = set()
    for i, row in enumerate(a.rows):
        if row != ((i, 1),):
            active.add(i)
            for c, _ in row:
                active.add(c)
    return sorted(active)


def _active_block(a: SquareMatrix) -> tuple[list[int], list[list[int]]]:
    """The active block of a: the indices S of _active_indices and the
    dense |S| x |S| block a[S, S].  det(a) = det(a[S, S]) and
    a^-1 = a[S, S]^-1 (+) I.
    """
    indices = _active_indices(a)
    position = dict(zip(indices, range(len(indices))))
    block = []
    for i in indices:
        dense = [0] * len(indices)
        for c, v in a.rows[i]:
            dense[position[c]] = v
        block.append(dense)
    return indices, block


def _monomial(a: SquareMatrix) -> list[tuple[int, int]] | None:
    """The (column, value) pair of each row when a is monomial, one nonzero
    entry in each row and each column, else None."""
    rows = a.rows
    if any(len(row) != 1 for row in rows):
        return None
    pairs = [row[0] for row in rows]
    if len({c for c, _ in pairs}) != len(pairs):
        return None
    return pairs


def _monomial_det(pairs: list[tuple[int, int]], modulus: int | None) -> int:
    """det of the monomial matrix whose row i holds pairs[i]: the sign of
    the permutation i -> column, (-1) per cycle of even length, times the
    product of the entries, reduced for Z/m."""
    d = 1
    seen = [False] * len(pairs)
    for i, (_, value) in enumerate(pairs):
        d *= value
        if not seen[i]:
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = pairs[j][0]
                length += 1
            if not length & 1:
                d = -d
    return _reduce(d, modulus)


def det(a: SquareMatrix) -> int:
    """Determinant, reduced for Z/m: in O(n) for a monomial matrix (see
    _monomial_det), else the integer determinant of the active block from
    the elimination mat_inv runs."""
    pairs = _monomial(a)
    if pairs is not None:
        return _monomial_det(pairs, a.modulus)
    return _reduce(_det_and_adjugate(_active_block(a)[1])[0], a.modulus)


def _det_and_adjugate(entries) -> tuple[int, list[list[int]]]:
    """det(A) and adj(A) of an integer matrix from one fraction-free
    Gauss-Jordan elimination on [A | I] (Bareiss 1968).

    Each step k eliminates column k from every other row and divides by the
    previous pivot; the division is exact because every entry is a minor of
    [A | I].  When the pass ends the left block is d*I and the right block
    is d*A^-1, where d is the last pivot, det(A) up to the sign of the row
    swaps; the right block times that sign is adj(A).  A singular A gives
    (0, []).
    """
    n = len(entries)
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(entries)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0, []
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            if f:
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
            # else nothing to eliminate, common in the sparse matrices batteries
            # use: the row only rescales, and pivot == prev leaves it unchanged
            elif pivot != prev:
                m[i] = [pivot * x // prev for x in row]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def _unit_inverse(d: int, modulus: int | None) -> int:
    """1/d for the reduced determinant d, or NotInvertibleError when d is
    not a unit in the ring."""
    if modulus is None:
        if d not in (1, -1):
            raise NotInvertibleError(f"determinant {d} is not a unit in Z")
        return d  # 1/d = d for d = +-1
    if math.gcd(d, modulus) != 1:
        raise NotInvertibleError(f"determinant {d} is not a unit mod {modulus}")
    return pow(d, -1, modulus)


def mat_inv(a: SquareMatrix) -> SquareMatrix:
    """Adjugate divided by the determinant; det must be a unit in the ring.

    A monomial matrix (see _monomial) is a unit exactly when each of its
    entries is one, and its inverse puts 1/v at (j, i) for the entry v at
    (i, j): O(n), no elimination.  Otherwise det and adjugate come from one
    O(k^3) fraction-free pass over the integer lift of the k x k active
    block; the rows outside it stay unit rows.  No pivot is chosen mod m:
    over a composite modulus an invertible matrix can have no unit in a
    column ([[2, 3], [3, 2]] mod 6).
    """
    modulus = a.modulus
    pairs = _monomial(a)
    if pairs is not None:
        _unit_inverse(_monomial_det(pairs, modulus), modulus)
        rows = [()] * a.size
        for i, (c, v) in enumerate(pairs):
            # over Z, v = +-1 is its own inverse
            rows[c] = ((i, v if modulus is None else pow(v, -1, modulus)),)
        return trusted(SquareMatrix, a.size, tuple(rows), modulus)
    indices, block = _active_block(a)
    d_int, adj = _det_and_adjugate(block)
    unit = _unit_inverse(_reduce(d_int, modulus), modulus)
    rows = list(a.rows)  # the unit rows outside the block
    for i, row in zip(indices, adj):
        rows[i] = tuple((c, v) for c, e in zip(indices, row)
                        if (v := _reduce(unit * e, modulus)))
    return trusted(SquareMatrix, a.size, tuple(rows), modulus)


# ---------------------------------------------------------------------------
# Forms


def form_matrix(kind: str, n: int, modulus: int | None = None) -> SquareMatrix:
    if kind not in ("symplectic", "split-orthogonal"):
        raise ValueError(f"unknown form kind {kind!r}")
    if not (is_int(n) and n >= 0):
        raise ValueError(f"form size must be an int >= 0, got {n!r}")
    if n % 2 != 0:
        raise ValueError(f"{kind} form needs even size, got {n}")
    _check_modulus(modulus)
    half, minus_one = n // 2, _reduce(-1, modulus)
    if kind == "symplectic":  # [[0, I], [-I, 0]]
        rows = [((half + i, 1),) for i in range(half)] + [((i, minus_one),) for i in range(half)]
    else:  # split-orthogonal: I_(n/2) tensor diag(1, -1), +1/-1 down the diagonal
        rows = [((i, minus_one if i % 2 else 1),) for i in range(n)]
    return trusted(SquareMatrix, n, tuple(rows), modulus)


def preserves_form(a: SquareMatrix, kind: str) -> bool:
    """Exact check of M^T J M = J for the form kind of a's size."""
    j = form_matrix(kind, a.size, a.modulus)
    return mat_mul(mat_mul(transpose(a), j), a) == j


# ---------------------------------------------------------------------------
# Embeddings


def corner_embed(a: SquareMatrix, n: int) -> SquareMatrix:
    """Upper-left corner inclusion, 1s on the remaining diagonal."""
    if not is_int(n):
        raise ValueError(f"target size must be an int, got {n!r}")
    if n < a.size:
        raise ValueError(f"target size {n} smaller than matrix size {a.size}")
    return trusted(SquareMatrix, n, a.rows + tuple(((i, 1),) for i in range(a.size, n)),
                   a.modulus)


def sp_corner_embed(a: SquareMatrix, n: int) -> SquareMatrix:
    """Homomorphic symplectic stabilization Sp_2k -> Sp_n: coordinates
    0..k-1 stay in place, coordinates k..2k-1 move up to start at n/2, and
    the new coordinate pairs (i, n/2 + i), 0-based for k <= i < n/2, get
    the identity."""
    if not (is_int(n) and n % 2 == 0):
        raise ValueError(f"symplectic target size must be an even int, got {n!r}")
    if n < a.size:
        raise ValueError(f"target size {n} smaller than matrix size {a.size}")
    if a.size % 2 != 0:
        raise ValueError("symplectic matrix must have even size")
    if not preserves_form(a, "symplectic"):
        raise ValueError("input does not preserve the symplectic form")
    half, shift = a.size // 2, (n - a.size) // 2

    def moved(rows) -> tuple[Row, ...]:
        return tuple(tuple((c + shift * (c >= half), v) for c, v in row) for row in rows)

    def unit_rows(start: int) -> tuple[Row, ...]:
        return tuple(((i, 1),) for i in range(start, start + shift))

    rows = (*moved(a.rows[:half]), *unit_rows(half), *moved(a.rows[half:]),
            *unit_rows(n // 2 + half))
    return trusted(SquareMatrix, n, rows, a.modulus)


def perm_to_matrix(sigma: permmod.FinPerm, n: int, modulus: int | None = None) -> SquareMatrix:
    """Permutation matrix: column i carries e_sigma(i)."""
    if not (is_int(n) and n >= 0 and all(p <= n for p in sigma.support)):
        raise ValueError(f"need an int size covering the support of {sigma}, got {n!r}")
    _check_modulus(modulus)
    images = dict(sigma.mapping)
    rows = [()] * n
    for i in range(1, n + 1):
        rows[images.get(i, i) - 1] = ((i - 1, 1),)
    return trusted(SquareMatrix, n, tuple(rows), modulus)


def sp_perm_embed(sigma: permmod.FinPerm, n: int, modulus: int | None = None) -> SquareMatrix:
    """sigma -> diag(M_sigma, M_sigma), a symplectic matrix of size 2n."""
    m = perm_to_matrix(sigma, n, modulus)
    lower = tuple(tuple((c + n, v) for c, v in row) for row in m.rows)
    return trusted(SquareMatrix, 2 * n, m.rows + lower, modulus)


# ---------------------------------------------------------------------------
# Families and witnesses

CLASSICAL_FAMILIES = ("GL", "SL", "E", "Sp", "Onn")


class MatrixFamily(GroupFamily):
    """GL_n over Z or Z/m; subgroups are carried by their generator sets."""

    def __init__(self, size: int, modulus: int | None = None):
        self.size = size
        self.modulus = modulus
        self.name = f"mat-{size}(Z/{modulus})" if modulus else f"mat-{size}(Z)"
        self._identity = identity_matrix(size, modulus)

    def check_element(self, a):
        if not isinstance(a, SquareMatrix):
            raise FamilyMismatchError(f"not a SquareMatrix: {a!r}")
        if a.size != self.size or a.modulus != self.modulus:
            raise FamilyMismatchError(
                f"size {a.size} mod {a.modulus} matrix in {self.name}")

    def identity(self):
        return self._identity

    def mul(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return mat_mul(a, b)

    def inv(self, a):
        self.check_element(a)
        return mat_inv(a)

    def eq(self, a, b):
        self.check_element(a)
        self.check_element(b)
        return a == b

    def support(self, a):
        """The active indices of a (see _active_indices), index i as
        [i, i + 1)."""
        self.check_element(a)
        return 1, runs(_active_indices(a))

    def render(self, a):
        self.check_element(a)
        return render_matrix(a)


def classical_witness(family: str, n: int, modulus: int | None = None
                      ) -> tuple[MatrixFamily, Witness]:
    """Order-2 witness for a subgroup H of the family's group at block size
    n, and the ambient group it lives in.

    The block swap of an odd block is an odd permutation, so for GL/SL/E/Sp
    an odd n is stabilized once, to n + 1, which keeps the witness in Alt;
    write m for the resulting even block size.  GL/SL/E: H sits in size n;
    the witness is the permutation matrix of the block swap (1, m+1)...(m,
    2m) in size 2m.  Sp: H sits in Sp_2n; the witness is diag(M_swap,
    M_swap) in size 4m.  Onn: H sits in O_(n,n) of size 2n; the witness
    exchanges the first 2n basis vectors with the last 2n inside size 4n,
    an even permutation for every n.
    """
    if family not in CLASSICAL_FAMILIES:
        raise ValueError(f"unknown classical family {family!r}")
    if not is_int(n):
        raise ValueError(f"block size n must be an int, got {n!r}")
    if family == "Onn":
        t = perm_to_matrix(permmod.block_swap(2 * n), 4 * n, modulus)
    else:
        n += n % 2
        embed = sp_perm_embed if family == "Sp" else perm_to_matrix
        t = embed(permmod.block_swap(n), 2 * n, modulus)
    return MatrixFamily(t.size, modulus), Witness(t, Finite(2))


def elementary(n: int, i: int, j: int, r: int = 1, modulus: int | None = None) -> SquareMatrix:
    """E_ij(r) = I + r * e_ij, i != j."""
    for name, value in (("n", n), ("i", i), ("j", j), ("r", r)):
        if not is_int(value):
            raise ValueError(f"elementary matrix {name} must be an int, got {value!r}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"elementary matrix indices must lie in 1..{n}, got ({i}, {j})")
    if i == j:
        raise ValueError("elementary matrix needs i != j")
    _check_modulus(modulus)
    rows = [((k, 1),) for k in range(n)]
    if v := _reduce(r, modulus):
        rows[i - 1] = tuple(sorted(((i - 1, 1), (j - 1, v))))
    return trusted(SquareMatrix, n, tuple(rows), modulus)


# ---------------------------------------------------------------------------
# Text formats


def render_matrix(a: SquareMatrix) -> str:
    body = "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in a.entries) + "]"
    return body + (f" mod {a.modulus}" if a.modulus is not None else "")
