"""Exact dense linear algebra over a Field.

Matrices are lists of row lists of raw field values; vectors are lists of raw
values.  Everything is Gauss-Jordan on exact arithmetic.  Dimensions here are
single digits, so no pivoting strategy or sparsity is needed.
"""

from __future__ import annotations

from .errors import DimensionError
from .fields import Field


def zeros(field: Field, n: int) -> list:
    return [field.zero] * n


def identity(field: Field, n: int) -> list[list]:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def rref(field: Field, rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if not field.is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        if m[r][c] != field.one:
            inv = field.inv(m[r][c])
            m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
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
