"""Exact dense linear algebra over a Field.

Matrices are lists of row lists of field values (Fraction over Q, ints in
range(p) over F_p); vectors are lists of them.  Everything is Gauss-Jordan
in `rref`, which `rank`, `nullspace` and `invert` (and so `Subspace` and
`Factorization`) go through.  It runs in the entries' own operators, the
way identities._bilinear and _linear do: Fraction arithmetic over Q, and
over F_p plain ints with one `% p` per updated entry and a `pow` for the
pivot's inverse.  Dimensions here are single digits, so no pivoting
strategy or sparsity is needed.
"""

from __future__ import annotations

from .errors import DimensionError
from .fields import Field


def zeros(field: Field, n: int) -> list:
    return [field.zero] * n


def identity(field: Field, n: int) -> list[list]:
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    p = field.characteristic
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        row = m[pivot]
        m[r], m[pivot] = row, m[r]
        a = row[c]
        if a != 1:
            if p:
                inv = pow(a, p - 2, p)
                row = [x * inv % p for x in row]
            else:
                row = [x / a for x in row]
            m[r] = row
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                if p:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
                else:
                    m[i] = [x - f * y for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rank(field: Field, rows: list[list]) -> int:
    return len(rref(field, rows)[0])


def nullspace(field: Field, rows: list[list]) -> list[list]:
    """Basis of {x : (rows) x = 0}."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = zeros(field, n)
        vec[fc] = field.one
        for row, p in zip(red, pivots):
            vec[p] = field.neg(row[fc])
        basis.append(vec)
    return basis


def invert(field: Field, rows: list[list]) -> list[list] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionError("matrix is not square")
    aug = [list(r) + e for r, e in zip(rows, identity(field, n))]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def is_invertible(field: Field, rows: list[list]) -> bool:
    n = len(rows)
    return rank(field, rows) == n
