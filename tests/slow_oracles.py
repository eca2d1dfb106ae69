"""Slow, independent oracles for the fast search paths.

Each is the plain brute-force procedure: a sigma loop over GL(V) for the
factorization index, and an unfiltered scan of all p^(n*n) matrices for
`iso_search` over F_p.  The tests compare the library's searches with
them, so neither fast path is its own judge.
"""

import itertools

from jalg import LinearMap, equiv_check
from jalg import linalg
from jalg.algebra import _hom_ok
from jalg.morphism import IsoVerdict


def general_linear(f, n):
    """Every invertible n x n matrix as a LinearMap, in lexicographic order
    of the row-major entries."""
    p = f.characteristic
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if linalg.rank(f, rows) != n:
            continue
        cols = [[rows[k][j] for k in range(n)] for j in range(n)]
        out.append(LinearMap(f, n, n, cols))
    return out


def sigma_loop_classes(mp, maps):
    """(classes, witnesses): each map joins the first class whose
    representative some sigma in GL(V) relates it to, with the first such
    sigma; otherwise it opens a class, witnessed by the identity."""
    f = mp.A.field
    n = mp.V.dim
    gl = general_linear(f, n)
    classes = []
    witnesses = {}
    for idx, r in enumerate(maps):
        for cls in classes:
            rep = maps[cls[0]]
            sigma = next((s for s in gl if equiv_check(mp, r, rep, s)), None)
            if sigma is not None:
                cls.append(idx)
                witnesses[idx] = sigma
                break
        else:
            classes.append([idx])
            witnesses[idx] = LinearMap.identity(f, n)
    return classes, witnesses


def unfiltered_iso_scan(A, B, budget=None):
    """iso_search over F_p by trying every matrix in row-major
    lexicographic order, counting each against the budget."""
    f = A.field
    p = f.characteristic
    n = A.dim
    seen = 0
    for flat in itertools.product(range(p), repeat=n * n):
        seen += 1
        if budget is not None and seen > budget:
            return IsoVerdict(
                "unknown", note=f"budget exhausted after {budget} of {p ** (n * n)} candidates"
            )
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        images = [[rows[k][i] for k in range(n)] for i in range(n)]
        if not _hom_ok(A, B, images):
            continue
        if linalg.rank(f, rows) != n:
            continue
        return IsoVerdict("isomorphic", witness=LinearMap(f, n, n, images))
    return IsoVerdict("non-isomorphic", certificate="exhausted GL over the field")


def scan_index(verdict, p):
    """0-based position of an isomorphic verdict's witness in the full
    row-major order of the unfiltered scan."""
    index = 0
    for row in verdict.witness.rows():
        for c in row:
            index = index * p + c
    return index
