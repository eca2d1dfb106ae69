"""Seeded input generation for the benchmark, in plain exact arithmetic.

Nothing here imports jalg: the tables are built with Fraction (over Q) or
ints mod p, so the library under test only ever receives finished tables
and files.  A field is named by its characteristic, 0 for Q.

The oracles here are independent of the library: a table whose Jordan
identity fails at a concrete point is certainly not Jordan, and over F_p
an identity whose degree in every coordinate is below p holds exactly
when it holds at every point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# a prime far above every denominator met here: a Q table reduced modulo
# it and found nonzero at a point is nonzero over Q at that point
SPOT_PRIME = 2**61 - 1


def _reduce(value, p):
    if p == 0:
        return Fraction(value)
    value = Fraction(value)
    return value.numerator * pow(value.denominator, -1, p) % p


def _matrix_to_field(rows, p):
    return [[_reduce(c, p) for c in row] for row in rows]


def to_field(table, p):
    """A structure-constant table with every entry moved into the field."""
    return [_matrix_to_field(row, p) for row in table]


# ---------------------------------------------------------------------------
# symmetric matrices


def sym_table(n):
    """Sym_n over Q: symmetric n x n matrices with x.y = (xy + yx) / 2, on
    the basis E_ii, E_ij + E_ji (i < j); dimension n(n+1)/2."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)

    def entries(b):
        i, j = b
        return {(i, j), (j, i)}

    table = [[None] * dim for _ in range(dim)]
    half = Fraction(1, 2)
    for a, x in enumerate(basis):
        for b, y in enumerate(basis):
            # xy + yx = xy + (xy)^T, since x and y are symmetric
            prod = {}
            for (i, k) in entries(x):
                for (k2, j) in entries(y):
                    if k == k2:
                        prod[(i, j)] = prod.get((i, j), 0) + 1
                        prod[(j, i)] = prod.get((j, i), 0) + 1
            cell = [Fraction(0)] * dim
            for (i, j), c in prod.items():
                if i <= j:
                    # E_ij + E_ji carries the (i, j) entry of the result
                    cell[index[(i, j)]] = c * half
            table[a][b] = cell
    return table


# ---------------------------------------------------------------------------
# change of basis


def _invert(rows, p):
    """Inverse of a square matrix over Q (p = 0) or F_p, or None."""
    n = len(rows)
    one = Fraction(1) if p == 0 else 1
    zero = Fraction(0) if p == 0 else 0
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c] if p == 0 else pow(aug[c][c], -1, p)
        aug[c] = [x * inv if p == 0 else x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                if p == 0:
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
                else:
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def random_basis_change(rng, dim, fields, low, high):
    """An integer matrix with entries in [low, high], invertible over every
    field in `fields`; column i holds the old coordinates of new vector i."""
    while True:
        P = [[rng.randint(low, high) for _ in range(dim)] for _ in range(dim)]
        if all(_invert(_matrix_to_field(P, p), p) is not None for p in fields):
            return P


def rebase(table, P, p):
    """Structure constants of the same algebra on the basis f_i = sum_k
    P[k][i] e_k.  Dense P makes a dense table."""
    dim = len(table)
    P = _matrix_to_field(P, p)
    Pinv = _invert(P, p)
    table = to_field(table, p)
    zero = Fraction(0) if p == 0 else 0

    def red(x):
        return x if p == 0 else x % p

    out = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = [zero] * dim
            for a in range(dim):
                if P[a][i] == 0:
                    continue
                for b in range(dim):
                    if P[b][j] == 0:
                        continue
                    w = P[a][i] * P[b][j]
                    cell = table[a][b]
                    for c in range(dim):
                        if cell[c] != 0:
                            v[c] = red(v[c] + w * cell[c])
            cell = [red(sum(Pinv[k][c] * v[c] for c in range(dim))) for k in range(dim)]
            out[i][j] = cell
            out[j][i] = list(cell)
    return out


# ---------------------------------------------------------------------------
# Jordan identity at concrete points


def _mul(table, x, y, p):
    dim = len(table)
    out = [0] * dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            f = xi * yj
            for k, c in enumerate(row[j]):
                if c != 0:
                    out[k] += f * c
    return [c % p for c in out]


def jordan_residual(table, a, b, p):
    """((a a) b) a - (a a)(b a) for an F_p table and points a, b."""
    a2 = _mul(table, a, a, p)
    lhs = _mul(table, _mul(table, a2, b, p), a, p)
    rhs = _mul(table, a2, _mul(table, b, a, p), p)
    return [(x - y) % p for x, y in zip(lhs, rhs)]


def fails_jordan_at_random_point(rng, table, p, tries=20):
    """True when some random point shows the identity failing.  A table
    over Q (p = 0) is reduced modulo SPOT_PRIME first; a nonzero value there
    is nonzero over Q as well."""
    q = SPOT_PRIME if p == 0 else p
    t = to_field(table, q)
    dim = len(t)
    for _ in range(tries):
        a = [rng.randrange(q) for _ in range(dim)]
        b = [rng.randrange(q) for _ in range(dim)]
        if any(jordan_residual(t, a, b, q)):
            return True
    return False


def is_jordan_exhaustive(table, p):
    """Exact decision over F_p for tables whose identity has degree below p
    in every coordinate (always true for p >= 5: degree 3 in a, 1 in b).
    The identity is linear in b, so basis vectors suffice for b."""
    dim = len(table)
    units = [[1 if k == i else 0 for k in range(dim)] for i in range(dim)]
    for a in itertools.product(range(p), repeat=dim):
        for b in units:
            if any(jordan_residual(table, list(a), b, p)):
                return False
    return True


def perturb_until_not_jordan(rng, table, p):
    """A copy of `table` with one symmetric entry pair shifted, chosen so a
    concrete point proves the result is not Jordan."""
    dim = len(table)
    while True:
        i, j, k = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
        delta = rng.randint(1, 4 if p == 0 else p - 1)
        out = [[list(cell) for cell in row] for row in table]
        out[i][j][k] = _reduce(out[i][j][k] + delta, p)
        if i != j:
            out[j][i][k] = out[i][j][k]
        if fails_jordan_at_random_point(rng, out, p):
            return out


# ---------------------------------------------------------------------------
# the 625 one-dimensional pairs over F5


def one_dim_product(s, t, wr, wl):
    """Product table on (a, x) of the pair a.a = s a, x.x = t x, with right
    weight wr (x <| a = wr x) and left weight wl (x |> a = wl a)."""
    return [[[s, 0], [wl, wr]], [[wl, wr], [0, t]]]


# ---------------------------------------------------------------------------
# criterion 10's sampling plan: (factor dims, zero probability, count)

SAMPLING_PLAN = (
    ((1, 1), 0.5, 80),
    ((2, 1), 0.75, 40),
    ((1, 2), 0.75, 40),
    ((2, 2), 0.85, 40),
)


def _sparse_entry(rng, zero_probability):
    if rng.random() < zero_probability:
        return 0
    return rng.randrange(1, 5)


def _symmetric_table(rng, n, q):
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cell = tuple(_sparse_entry(rng, q) for _ in range(n))
            sc[i][j] = cell
            sc[j][i] = cell
    return sc


def random_pair_tables(rng, na, nv, q):
    """(A table, V table, right tensor, left tensor) over F5, drawn the same
    way as criterion 10 of the acceptance suite; returned as nested tuples
    so candidates can be compared."""
    a = _symmetric_table(rng, na, q)
    v = _symmetric_table(rng, nv, q)
    right = [[[_sparse_entry(rng, q) for _ in range(nv)] for _ in range(na)] for _ in range(nv)]
    left = [[[_sparse_entry(rng, q) for _ in range(na)] for _ in range(na)] for _ in range(nv)]

    def freeze(t):
        return tuple(tuple(tuple(cell) for cell in row) for row in t)

    return freeze(a), freeze(v), freeze(right), freeze(left)


# ---------------------------------------------------------------------------
# files


def algebra_text(table, basis, p):
    """A .jalg file for an F_p table (p > 0)."""
    lines = [f"field F{p}", f"dim {len(basis)}", "basis " + " ".join(basis)]
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            terms = [f"{c} {basis[k]}" for k, c in enumerate(table[i][j]) if c % p]
            if terms:
                lines.append(f"mult {basis[i]} {basis[j]} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def is_isomorphism(rows, src, dst, p):
    """Whether the matrix with these rows (column i = image of e_i) is an
    invertible algebra map from the src table to the dst table over F_p."""
    n = len(src)
    if _invert(_matrix_to_field(rows, p), p) is None:
        return False
    images = [[rows[k][i] % p for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            lhs = [0] * n
            for k, c in enumerate(src[i][j]):
                if c % p:
                    for d in range(n):
                        lhs[d] += c * images[k][d]
            lhs = [x % p for x in lhs]
            if lhs != _mul(dst, images[i], images[j], p):
                return False
    return True
