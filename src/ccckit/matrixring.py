"""Exact square matrices over Z and Z/m, with the stabilized classical
groups' corner/symplectic embeddings, bilinear form checks, and order-2
block-swap witnesses.

Determinants use fraction-free (Bareiss) elimination over Z; modular
determinants reduce the integer determinant, since reduction mod m is a
ring homomorphism.  Inverses run one fraction-free Gauss-Jordan pass over
Z on the integer lift, which yields det(A) and adj(A) together, so all
intermediate arithmetic stays exact and integral.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass

from . import perm as permmod
from .core import CcckitError, FamilyMismatchError, GroupFamily, Witness, Finite, trusted


class NotInvertibleError(CcckitError):
    pass


class StabilizationError(CcckitError):
    """Raised when an odd block size would put the witness outside Alt."""


def _reduce(v: int, modulus: int | None) -> int:
    return v % modulus if modulus is not None else v


@dataclass(frozen=True)
class SquareMatrix:
    entries: tuple[tuple[int, ...], ...]
    modulus: int | None = None

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if any(e != _reduce(e, self.modulus) for row in self.entries for e in row):
            raise ValueError("entries not reduced for the modulus")

    @property
    def size(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return render_matrix(self)


def matrix(rows, modulus: int | None = None) -> SquareMatrix:
    return SquareMatrix(tuple(tuple(_reduce(int(e), modulus) for e in row) for row in rows),
                        modulus)


def identity_matrix(n: int, modulus: int | None = None) -> SquareMatrix:
    return matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)], modulus)


def _check_compat(a: SquareMatrix, b: SquareMatrix) -> None:
    if a.size != b.size or a.modulus != b.modulus:
        raise FamilyMismatchError(
            f"incompatible matrices: size {a.size} mod {a.modulus} vs size {b.size} mod {b.modulus}")


def mat_mul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    _check_compat(a, b)
    cols = tuple(zip(*b.entries))
    return trusted(SquareMatrix, tuple(tuple(_reduce(sum(map(operator.mul, row, col)), a.modulus)
                                             for col in cols) for row in a.entries), a.modulus)


def transpose(a: SquareMatrix) -> SquareMatrix:
    return matrix(list(zip(*a.entries)), a.modulus)


def det(a: SquareMatrix) -> int:
    """Determinant; exact Bareiss elimination over Z, reduced for Z/m."""
    n = a.size
    m = [[int(e) for e in row] for row in a.entries]
    sign_flip = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign_flip = -sign_flip
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    value = sign_flip * (m[n - 1][n - 1] if n else 1)
    return _reduce(value, a.modulus)


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
            else:  # nothing to eliminate; common in the sparse matrices batteries use
                m[i] = [pivot * x // prev for x in row]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def mat_inv(a: SquareMatrix) -> SquareMatrix:
    """Adjugate divided by the determinant; det must be a unit in the ring.

    det and adjugate come from one O(n^3) fraction-free pass over the
    integer lift.  No pivot is chosen mod m: over a composite modulus an
    invertible matrix can have no unit in a column ([[2, 3], [3, 2]] mod 6).
    """
    d_int, adj = _det_and_adjugate(a.entries)
    d = _reduce(d_int, a.modulus)
    if a.modulus is None:
        if d not in (1, -1):
            raise NotInvertibleError(f"determinant {d} is not a unit in Z")
        unit = d  # 1/d = d for d = +-1
    else:
        if math.gcd(d, a.modulus) != 1:
            raise NotInvertibleError(f"determinant {d} is not a unit mod {a.modulus}")
        unit = pow(d, -1, a.modulus)
    return trusted(SquareMatrix, tuple(tuple(_reduce(unit * e, a.modulus) for e in row)
                                       for row in adj), a.modulus)


# ---------------------------------------------------------------------------
# Forms


@dataclass(frozen=True)
class FormTag:
    kind: str  # "symplectic" | "split-orthogonal" | "none"
    size: int

    def __post_init__(self):
        if self.kind not in ("symplectic", "split-orthogonal", "none"):
            raise ValueError(f"unknown form kind {self.kind!r}")
        if self.kind in ("symplectic", "split-orthogonal") and self.size % 2 != 0:
            raise ValueError(f"{self.kind} form needs even size, got {self.size}")


def form_matrix(tag: FormTag, modulus: int | None = None) -> SquareMatrix:
    n = tag.size
    if tag.kind == "symplectic":
        half = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(half):
            rows[i][half + i] = 1
            rows[half + i][i] = -1
        return matrix(rows, modulus)
    if tag.kind == "split-orthogonal":
        # I_(n/2) tensor diag(1, -1): alternating +1/-1 down the diagonal
        return matrix([[(1 if i % 2 == 0 else -1) if i == j else 0 for j in range(n)]
                       for i in range(n)], modulus)
    return identity_matrix(n, modulus)


def preserves_form(a: SquareMatrix, tag: FormTag) -> bool:
    """Exact check of M^T J M = J."""
    if a.size != tag.size:
        raise FamilyMismatchError(f"matrix size {a.size} vs form size {tag.size}")
    if tag.kind == "none":
        return True
    j = form_matrix(tag, a.modulus)
    return mat_mul(mat_mul(transpose(a), j), a) == j


# ---------------------------------------------------------------------------
# Embeddings


def corner_embed(a: SquareMatrix, n: int) -> SquareMatrix:
    """Upper-left corner inclusion, 1s on the remaining diagonal."""
    if n < a.size:
        raise ValueError(f"target size {n} smaller than matrix size {a.size}")
    rows = [[0] * n for _ in range(n)]
    for i in range(a.size):
        for j in range(a.size):
            rows[i][j] = a.entries[i][j]
    for i in range(a.size, n):
        rows[i][i] = 1
    return matrix(rows, a.modulus)


def sp_embed(a: SquareMatrix) -> SquareMatrix:
    """The literal block stabilization Sp_2n -> Sp_2n+2: the new symplectic
    coordinate pair receives the fixed entries +1 / -1 (so the image of the
    identity differs from I at exactly those two slots).  Form preservation
    is exact; the map is a homomorphism only after correcting by the image
    of the identity, which sp_corner_embed does.
    """
    if a.size % 2 != 0:
        raise ValueError("symplectic matrix must have even size")
    if not preserves_form(a, FormTag("symplectic", a.size)):
        raise ValueError("input does not preserve the symplectic form")
    half = a.size // 2
    n = a.size + 2
    rows = [[0] * n for _ in range(n)]
    for i in range(half):
        for j in range(half):
            rows[i][j] = a.entries[i][j]                      # M block
            rows[i][half + 1 + j] = a.entries[i][half + j]    # N block
            rows[half + 1 + i][j] = a.entries[half + i][j]    # R block
            rows[half + 1 + i][half + 1 + j] = a.entries[half + i][half + j]  # S block
    rows[half][n - 1] = 1
    rows[n - 1][half] = _reduce(-1, a.modulus)
    return matrix(rows, a.modulus)


def sp_corner_embed(a: SquareMatrix) -> SquareMatrix:
    """Homomorphic symplectic stabilization: identity on the new pair.
    Equals sp_embed(a) * sp_embed(I)^-1."""
    if a.size % 2 != 0:
        raise ValueError("symplectic matrix must have even size")
    if not preserves_form(a, FormTag("symplectic", a.size)):
        raise ValueError("input does not preserve the symplectic form")
    half = a.size // 2
    n = a.size + 2
    rows = [[0] * n for _ in range(n)]
    for i in range(half):
        for j in range(half):
            rows[i][j] = a.entries[i][j]
            rows[i][half + 1 + j] = a.entries[i][half + j]
            rows[half + 1 + i][j] = a.entries[half + i][j]
            rows[half + 1 + i][half + 1 + j] = a.entries[half + i][half + j]
    rows[half][half] = 1
    rows[n - 1][n - 1] = 1
    return matrix(rows, a.modulus)


def perm_to_matrix(sigma: permmod.FinPerm, n: int, modulus: int | None = None) -> SquareMatrix:
    """Permutation matrix: column i carries e_sigma(i)."""
    if any(p > n for p in sigma.support):
        raise ValueError(f"permutation support exceeds {n}")
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        rows[sigma(i) - 1][i - 1] = 1
    return matrix(rows, modulus)


def sp_perm_embed(sigma: permmod.FinPerm, n: int, modulus: int | None = None) -> SquareMatrix:
    """sigma -> diag(M_sigma, M_sigma), a symplectic matrix of size 2n."""
    m = perm_to_matrix(sigma, n, modulus)
    rows = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = m.entries[i][j]
            rows[n + i][n + j] = m.entries[i][j]
    return matrix(rows, modulus)


# ---------------------------------------------------------------------------
# Families and witnesses

CLASSICAL_FAMILIES = ("GL", "SL", "E", "Sp", "Onn")


class MatrixFamily(GroupFamily):
    """GL_n over Z or Z/m; subgroups are carried by their generator sets."""

    def __init__(self, size: int, modulus: int | None = None, name: str | None = None):
        self.size = size
        self.modulus = modulus
        suffix = f"Z/{modulus}" if modulus else "Z"
        self.name = name or f"mat-{size}({suffix})"
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

    def render(self, a):
        return render_matrix(a)


def classical_witness(family: str, n: int, modulus: int | None = None
                      ) -> tuple[MatrixFamily, Witness]:
    """Order-2 witness one stabilization step up from size n.

    GL/SL/E: n even required; witness is the permutation matrix of the
    block swap (1, n+1)...(n, 2n) in size 2n.  Sp: H sits in size 2n (n
    pairs, n even required); witness is diag(M_swap, M_swap) in size 4n.
    Onn: H sits in O_(n,n) of size 2n; witness exchanges the first 2n basis
    vectors with the last 2n inside size 4n; no parity restriction.
    """
    if family not in CLASSICAL_FAMILIES:
        raise ValueError(f"unknown classical family {family!r}")
    if family == "Onn":
        ambient = MatrixFamily(4 * n, modulus, name=f"Onn-{n}-stab")
        t = perm_to_matrix(permmod.block_swap(2 * n), 4 * n, modulus)
        return ambient, Witness(t, Finite(2))
    if n % 2 != 0:
        raise StabilizationError(
            f"witness needs an even block to stay in Alt; stabilize {family}_{n} to size {n + 1}")
    if family == "Sp":
        ambient = MatrixFamily(4 * n, modulus, name=f"Sp-{n}-stab")
        t = sp_perm_embed(permmod.block_swap(n), 2 * n, modulus)
        return ambient, Witness(t, Finite(2))
    ambient = MatrixFamily(2 * n, modulus, name=f"{family}-{n}-stab")
    t = perm_to_matrix(permmod.block_swap(n), 2 * n, modulus)
    return ambient, Witness(t, Finite(2))


def elementary(n: int, i: int, j: int, r: int = 1, modulus: int | None = None) -> SquareMatrix:
    """E_ij(r) = I + r * e_ij, i != j."""
    if i == j:
        raise ValueError("elementary matrix needs i != j")
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i - 1][j - 1] = r
    return matrix(rows, modulus)


def support_indices(a: SquareMatrix) -> set[int]:
    """Rows/columns (1-based) where the matrix differs from the identity."""
    out = set()
    for i in range(a.size):
        for j in range(a.size):
            expected = 1 if i == j else 0
            if a.entries[i][j] != _reduce(expected, a.modulus):
                out.add(i + 1)
                out.add(j + 1)
    return out


# ---------------------------------------------------------------------------
# Text formats


def render_matrix(a: SquareMatrix) -> str:
    body = "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in a.entries) + "]"
    return body + (f" mod {a.modulus}" if a.modulus is not None else "")


_MOD_RE = re.compile(r"^(.*?)\s*(?:mod\s+(\d+))?$", re.DOTALL)


def parse_matrix(text: str) -> SquareMatrix:
    """Accepts the render format (bracketed rows, optional "mod m") and bare
    JSON array-of-rows."""
    m = _MOD_RE.match(text.strip())
    body, mod = m.group(1), m.group(2)
    rows = json.loads(body)
    return matrix(rows, int(mod) if mod else None)
