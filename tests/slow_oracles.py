"""Slow, independent oracles for the fast paths.

Each is the plain procedure the fast path replaced: generic-element
expansion of the cube law (the Jordan identity, the action laws and both
bimodule laws) as polynomials, the cube law's coefficients from a fresh
S_r U_pq - U_pq S_r per basis triple instead of cached commutators,
MP1-MP6 expanded as polynomials (_mp_expansions, the one copy in the
repository) where the library reads them off the product's cube law, a
sigma loop over GL(V) for the factorization index, an unfiltered scan of all
p^(n*n) matrices for `iso_search` over F_p and of every matrix of bounded
height for its witness search over Q, the F_p search on buckets
that key every element of the target (the library reads a key's elements
off one operator per line through the origin), its invariants (the trace
form ranks and the element keys) from dense matrix products, the six
block conditions C1-C6 of a morphism quadruple written out one by one,
the projection of a factorization from one `express` (a `solve`) per
unit vector, Gauss-Jordan elimination (`rref`, `rank`, `nullspace`,
`invert`) through the Field's methods where `linalg` runs in plain
operators, the F_p enumerations as a `Poly.eval` of every condition at
each of the p^k candidates, and the deformation identity, the deformed
table and the equivalence of two maps written out term by term instead
of read off the product table, and that product table itself, built
dense cell by cell (`pair_product`) where the library assembles its
sparse form from the factors'.  Underneath them all are the contractions
as dense loops through the ring protocol, where the library contracts
sparse tables in plain operators.  The tests compare the library with them, so no fast
path is its own judge.
"""

import itertools

from jalg import DeformationMap, LinearMap, equiv_check
from jalg import linalg
from jalg.algebra import _hom_ok
from jalg.deformation import _deformation_conditions
from jalg.errors import DimensionError
from jalg.identities import (
    MP_AXIOMS,
    PAIR_AXIOMS,
    AxiomFailure,
    _lift,
    _operator,
    _sparse,
    _vadd,
    _verdict,
    _vscale,
    _vsub,
    generic_ring,
)
from jalg.matched_pair import _abelian_pair_conditions
from jalg.morphism import IsoVerdict, QuadrupleVerdict, _column_tuples, _height_values
from jalg.poly import PolyRing


def _collect(failures, axiom, space, residual_vec, stop_early) -> bool:
    """Append nonzero coordinates; returns True if the axiom failed."""
    failed = False
    for k, p in enumerate(residual_vec):
        if not p.is_zero:
            failures.append(AxiomFailure(axiom, space, k, p))
            failed = True
            if stop_early:
                return True
    return failed


def _embed2(ring, table):
    """Coerce a 2-index tensor of vectors into ring elements, densely."""
    return [[[ring.coerce(c) for c in cell] for cell in row] for row in table]


def _bilinear(ring, tensor, u, v, out_dim):
    """sum over i, j of u_i v_j tensor[i][j] on a dense tensor, through
    the ring protocol."""
    out = [ring.zero] * out_dim
    for i, ui in enumerate(u):
        if ring.is_zero(ui):
            continue
        row = tensor[i]
        for j, vj in enumerate(v):
            if ring.is_zero(vj):
                continue
            prod = ring.mul(ui, vj)
            cell = row[j]
            for k in range(out_dim):
                if not ring.is_zero(cell[k]):
                    out[k] = ring.add(out[k], ring.mul(prod, cell[k]))
    return out


def _linear(ring, cols, x, out_dim):
    """sum over j of x_j cols[j], through the ring protocol."""
    out = [ring.zero] * out_dim
    for j, xj in enumerate(x):
        if ring.is_zero(xj):
            continue
        col = cols[j]
        for k in range(out_dim):
            if not ring.is_zero(col[k]):
                out[k] = ring.add(out[k], ring.mul(xj, col[k]))
    return out


def _hom_mismatches(ring, sc, sc2, images):
    """(i, j, lhs, rhs) for each basis pair i <= j of the dense table sc
    where lhs = image of e_i e_j differs from rhs = (image of e_i)(image
    of e_j) in the dense table sc2."""
    out_dim = len(sc2)
    for i in range(len(sc)):
        for j in range(i, len(sc)):
            lhs = _linear(ring, images, sc[i][j], out_dim)
            rhs = _bilinear(ring, sc2, images[i], images[j], out_dim)
            if lhs != rhs:
                yield i, j, lhs, rhs


def mat_vec(field, rows, v):
    if rows and len(rows[0]) != len(v):
        raise DimensionError(f"matrix width {len(rows[0])} vs vector length {len(v)}")
    out = []
    for row in rows:
        s = field.zero
        for a, b in zip(row, v):
            s = field.add(s, field.mul(a, b))
        out.append(s)
    return out


def mat_mul(field, a, b):
    if a and b and len(a[0]) != len(b):
        raise DimensionError(f"inner dimensions {len(a[0])} vs {len(b)}")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            s = field.zero
            for k, x in enumerate(row):
                s = field.add(s, field.mul(x, b[k][j]))
            new.append(s)
        out.append(new)
    return out


def jordan_verdict(field, mul, params=(), stop_early=False):
    """(a^2 b) a = a^2 (b a), expanded with generic a, b."""
    dim = len(mul)
    ring, gen = generic_ring(field, params, [("a", dim), ("b", dim)])
    t = _embed2(ring, mul)
    a, b = gen["a"], gen["b"]

    def M(u, v):
        return _bilinear(ring, t, u, v, dim)

    a2 = M(a, a)
    residual = _vsub(ring, M(M(a2, b), a), M(a2, M(b, a)))
    failures = []
    _collect(failures, "jordan", "A", residual, stop_early)
    return _verdict(failures, ["jordan"])


def action_law_verdict(
    field, mul_acting, act, params=(), acting_prefix="x", module_prefix="m", axiom="action-law"
):
    """w (w^2 m) = w^2 (w m), expanded with generic w and m."""
    dim_w = len(mul_acting)
    dim_m = len(act[0]) if dim_w else 0
    ring, gen = generic_ring(field, params, [(acting_prefix, dim_w), (module_prefix, dim_m)])
    mul_t = _embed2(ring, mul_acting)
    act_t = _embed2(ring, act)
    w, m = gen[acting_prefix], gen[module_prefix]

    def S(u, v):
        return _bilinear(ring, act_t, u, v, dim_m)

    w2 = _bilinear(ring, mul_t, w, w, dim_w)
    residual = _vsub(ring, S(w, S(w2, m)), S(w2, S(w, m)))
    failures = []
    _collect(failures, axiom, "M", residual, False)
    return _verdict(failures, [axiom])


def bimodule_verdict(field, mul, act, params=()):
    """The bimodule square and linearized laws, both expanded."""
    dim = len(mul)
    dim_m = len(act[0]) if dim else 0
    ring, gen = generic_ring(field, params, [("a", dim), ("b", dim), ("m", dim_m)])
    mul_t = _embed2(ring, mul)
    act_t = _embed2(ring, act)
    a, b, m = gen["a"], gen["b"], gen["m"]
    two = ring.coerce(2)

    def M(u, v):
        return _bilinear(ring, mul_t, u, v, dim)

    def S(u, v):
        return _bilinear(ring, act_t, u, v, dim_m)

    failures = []
    a2 = M(a, a)
    square = _vsub(ring, S(a, S(a2, m)), S(a2, S(a, m)))
    _collect(failures, "bim-square", "M", square, False)
    am = S(a, m)
    lhs = _vsub(ring, S(M(a2, b), m), S(a2, S(b, m)))
    rhs = _vscale(ring, two, _vsub(ring, S(M(a, b), am), S(a, S(b, am))))
    _collect(failures, "bim-linear", "M", _vsub(ring, lhs, rhs), False)
    return _verdict(failures, ["bim-square", "bim-linear"])


def cube_coefficients(field, mul, act, params):
    """identities._cube_coefficients without the commutator cache: the
    operator U_pq = sum_t mul[p][q][t] S_t of every product e_p e_q, then
    the two products S_r U_pq and U_pq S_r made afresh for each arrangement
    (r; p, q) of each basis triple.  It takes dense tables and sparsifies
    them for the same lift; same output."""
    n = len(mul)
    m = len(act[0]) if n else 0
    ring = PolyRing(field, params) if params else field
    mul_s = _sparse(mul, ring)
    act_s = mul_s if act is mul else _sparse(act, ring)
    mul_s, act_s, nonzero, decode = _lift(field, params, mul_s, act_s)
    S = [_operator(cols, m) for cols in act_s]
    U = {}
    for p in range(n):
        for q in range(p, n):
            terms = [(S[t][0], c) for t, c in mul_s[p][q]]
            if not terms:
                continue
            cols = []
            for l in range(m):
                col: dict = {}
                for St, c in terms:
                    for o, v in St[l]:
                        col[o] = col.get(o, 0) + c * v
                cols.append([(o, v) for o, v in col.items() if nonzero(v)])
            op = _operator(cols, m)
            if op[1]:
                U[p, q] = op
    bad: dict = {}
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                if i == k:
                    parts = ((i, i, i, 1),)
                elif i == j:
                    parts = ((i, i, k, 2), (k, i, i, 1))
                elif j == k:
                    parts = ((i, j, j, 1), (j, i, j, 2))
                else:
                    parts = ((i, j, k, 2), (j, i, k, 2), (k, i, j, 2))
                acc: dict = {}
                for r, p, q, w in parts:
                    op = U.get((p, q))
                    if op is None:
                        continue
                    s_cols, s_flat = S[r]
                    u_cols, u_flat = op
                    for lm, s, u in u_flat:  # + S_r U_pq
                        wu = w * u
                        for o, v in s_cols[s]:
                            acc[lm + o] = acc.get(lm + o, 0) + wu * v
                    for lm, s, v in s_flat:  # - U_pq S_r
                        wv = w * v
                        for o, u in u_cols[s]:
                            acc[lm + o] = acc.get(lm + o, 0) - wv * u
                for key, c in acc.items():
                    if nonzero(c):
                        l, o = divmod(key, m)
                        bad.setdefault(o, {})[i, j, k, l] = c
    return bad, decode


def _mp_expansions(field, mul_a, mul_v, right, left, params, axioms, stop_early):
    """MP1-MP6 with generic a, b in A and x, y in V, each expanded as
    polynomials.  The action laws themselves are separate checks
    (action_law_verdict); this covers the six compatibilities only.

    The library reads the same residuals off the product's cube law
    (identities.matched_pair_verdict) and has no copy of these
    expansions: this one is the independent reference of the tests and of
    scripts/bicross_scan.py.
    """
    dim_a = len(mul_a)
    dim_v = len(mul_v)
    ring, gen = generic_ring(
        field, params, [("a", dim_a), ("b", dim_a), ("x", dim_v), ("y", dim_v)]
    )
    mt, nt, rt, lt = (_embed2(ring, t) for t in (mul_a, mul_v, right, left))
    a, b, x, y = gen["a"], gen["b"], gen["x"], gen["y"]

    def M(u, v):
        return _bilinear(ring, mt, u, v, dim_a)

    def N(u, v):
        return _bilinear(ring, nt, u, v, dim_v)

    def R(xv, av):
        return _bilinear(ring, rt, xv, av, dim_v)

    def L(xv, av):
        return _bilinear(ring, lt, xv, av, dim_a)

    a2 = M(a, a)
    x2 = N(x, x)

    def mp1():
        lhs = _vadd(ring, M(a, L(x, a2)), L(R(x, a2), a))
        rhs = _vadd(ring, M(a2, L(x, a)), L(R(x, a), a2))
        return "A", _vsub(ring, lhs, rhs)

    def mp2():
        lhs = _vadd(ring, R(x, L(x2, a)), N(R(x2, a), x))
        rhs = _vadd(ring, R(x2, L(x, a)), N(x2, R(x, a)))
        return "V", _vsub(ring, lhs, rhs)

    def mp3():
        xa = R(x, a)
        xb = R(x, b)
        big = _vadd(
            ring,
            _vadd(ring, R(R(xa, b), a), R(x, M(L(x, a), b))),
            _vadd(ring, R(x, L(xa, b)), N(R(xa, b), x)),
        )
        lhs = _vadd(
            ring, _vadd(ring, big, big), _vadd(ring, R(R(x2, b), a), R(x, M(b, a2)))
        )
        big2 = _vadd(
            ring,
            _vadd(ring, R(xa, M(b, a)), R(xa, L(x, b))),
            _vadd(ring, R(xb, L(x, a)), N(xa, xb)),
        )
        rhs = _vadd(
            ring, _vadd(ring, big2, big2), _vadd(ring, R(x2, M(b, a)), R(xb, a2))
        )
        return "V", _vsub(ring, lhs, rhs)

    def mp4():
        lxa = L(x, a)
        ylxa = L(y, lxa)
        big = _vadd(
            ring,
            _vadd(ring, M(ylxa, a), L(x, ylxa)),
            _vadd(ring, L(R(y, lxa), a), L(N(R(x, a), y), a)),
        )
        lhs = _vadd(
            ring, _vadd(ring, big, big), _vadd(ring, L(N(x2, y), a), L(x, L(y, a2)))
        )
        big2 = _vadd(
            ring,
            _vadd(ring, M(L(y, a), lxa), L(N(x, y), lxa)),
            _vadd(ring, L(R(y, a), lxa), L(R(x, a), L(y, a))),
        )
        rhs = _vadd(
            ring, _vadd(ring, big2, big2), _vadd(ring, L(x2, L(y, a)), L(N(x, y), a2))
        )
        return "A", _vsub(ring, lhs, rhs)

    def mp5():
        lxa = L(x, a)
        xa = R(x, a)
        ylxa = R(y, lxa)
        xay = N(xa, y)
        big = _vadd(
            ring,
            _vadd(ring, _vadd(ring, R(ylxa, a), R(xay, a)), R(x, L(y, lxa))),
            _vadd(ring, N(ylxa, x), N(xay, x)),
        )
        lhs = _vadd(
            ring,
            _vadd(ring, big, big),
            _vadd(ring, _vadd(ring, R(N(x2, y), a), R(x, L(y, a2))), N(R(y, a2), x)),
        )
        big2 = _vadd(
            ring,
            _vadd(ring, _vadd(ring, R(xa, L(y, a)), R(R(y, a), lxa)), R(N(x, y), lxa)),
            _vadd(ring, N(xa, N(x, y)), N(xa, R(y, a))),
        )
        rhs = _vadd(
            ring,
            _vadd(ring, big2, big2),
            _vadd(ring, _vadd(ring, R(x2, L(y, a)), R(N(x, y), a2)), N(x2, R(y, a))),
        )
        return "V", _vsub(ring, lhs, rhs)

    def mp6():
        lxa = L(x, a)
        xa = R(x, a)
        big = _vadd(
            ring,
            _vadd(ring, _vadd(ring, M(M(lxa, b), a), M(L(xa, b), a)), L(R(xa, b), a)),
            _vadd(ring, L(x, M(lxa, b)), L(x, L(xa, b))),
        )
        lhs = _vadd(
            ring,
            _vadd(ring, big, big),
            _vadd(ring, _vadd(ring, M(L(x2, b), a), L(R(x2, b), a)), L(x, M(a2, b))),
        )
        big2 = _vadd(
            ring,
            _vadd(ring, _vadd(ring, M(lxa, M(a, b)), L(xa, M(b, a))), M(lxa, L(x, b))),
            _vadd(ring, L(R(x, b), lxa), L(xa, L(x, b))),
        )
        rhs = _vadd(
            ring,
            _vadd(ring, big2, big2),
            _vadd(ring, _vadd(ring, L(x2, M(b, a)), L(R(x, b), a2)), M(a2, L(x, b))),
        )
        return "A", _vsub(ring, lhs, rhs)

    table = {"MP1": mp1, "MP2": mp2, "MP3": mp3, "MP4": mp4, "MP5": mp5, "MP6": mp6}
    failures = []
    checked = []
    for name in axioms:
        checked.append(name)
        space, residual = table[name]()
        if _collect(failures, name, space, residual, stop_early) and stop_early:
            break
    return _verdict(failures, checked)


def matched_pair_verdict(
    field, mul_a, mul_v, right, left, params=(), axioms=MP_AXIOMS, stop_early=False
):
    """MP1-MP6, each expanded as polynomials, with no cube-law shortcut."""
    return _mp_expansions(field, mul_a, mul_v, right, left, params, axioms, stop_early)


def _pair_product(mul_a, mul_v, right, left, zero) -> tuple:
    """Structure constants of the candidate product on A x V, dense and
    cell by cell: the A basis, then the V basis, and cell (a, x) =
    (x |> a, x <| a), so that (a,x)(b,y) = (ab + x|>b + y|>a, x<|b + y<|a + xy).
    The library assembles the sparse form of this table from the factors'
    kept forms (identities._pair_sparse)."""
    n, m = len(mul_a), len(mul_v)
    sc = [[None] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            sc[i][j] = tuple(mul_a[i][j]) + (zero,) * m
    for x in range(m):
        for y in range(m):
            sc[n + x][n + y] = (zero,) * n + tuple(mul_v[x][y])
    for i in range(n):
        for x in range(m):
            sc[i][n + x] = sc[n + x][i] = tuple(left[x][i]) + tuple(right[x][i])
    return tuple(map(tuple, sc))


def pair_product(mp):
    """The dense product table of a pair (_pair_product on its factors'
    tables and its actions)."""
    return _pair_product(mp.A.sc, mp.V.sc, mp.right.tensor, mp.left.tensor, mp.A.ring.zero)


def verify(mp, stop_early=False):
    """MatchedPair.verify from expansions alone: the ten laws of
    PAIR_AXIOMS written out as polynomials in the pair ring of a, b in A
    and x, y in V.  Each of the two Jordan identities and the two action
    laws is w (w^2 m) - w^2 (w m) for its acting w and module m; MP1-MP6
    are _mp_expansions.  With stop_early only the first failing (axiom,
    coordinate) is reported, and `checked` ends at its axiom."""
    A, V = mp.A, mp.V
    f, params, dim_a, dim_v = A.field, A.params, A.dim, V.dim
    ring, gen = generic_ring(f, params, [("a", dim_a), ("b", dim_a), ("x", dim_v), ("y", dim_v)])
    a, b, x, y = gen["a"], gen["b"], gen["x"], gen["y"]
    mul_a, mul_v = _embed2(ring, A.sc), _embed2(ring, V.sc)
    # A acts on V: acting-first indexing of the right action
    right = _embed2(ring, [[mp.right.tensor[t][s] for t in range(dim_v)] for s in range(dim_a)])
    left = _embed2(ring, mp.left.tensor)

    def law(mul, act, w, m):
        def S(u, v):
            return _bilinear(ring, act, u, v, len(m))

        w2 = _bilinear(ring, mul, w, w, len(w))
        return _vsub(ring, S(w, S(w2, m)), S(w2, S(w, m)))

    failures = []
    for axiom, space, residual in (
        ("jordan-A", "A", law(mul_a, mul_a, a, b)),
        ("jordan-V", "V", law(mul_v, mul_v, x, y)),
        ("right-action", "M", law(mul_a, right, a, x)),
        ("left-action", "M", law(mul_v, left, x, a)),
    ):
        _collect(failures, axiom, space, residual, False)
    tables = (A.sc, V.sc, mp.right.tensor, mp.left.tensor)
    failures += _mp_expansions(f, *tables, params, MP_AXIOMS, False).failures
    if stop_early and failures:
        first = failures[0]
        return _verdict([first], PAIR_AXIOMS[: PAIR_AXIOMS.index(first.axiom) + 1])
    return _verdict(failures, PAIR_AXIOMS)


def rref(field, rows):
    """Reduced row echelon form through the Field's methods: (nonzero rows,
    pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def rank(field, rows):
    return len(rref(field, rows)[0])


def nullspace(field, rows):
    """Basis of {x : (rows) x = 0}, one vector per free column."""
    if not rows:
        return []
    n = len(rows[0])
    red, pivots = rref(field, rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [field.zero] * n
        vec[fc] = field.one
        for row, p in zip(red, pivots):
            vec[p] = field.neg(row[fc])
        basis.append(vec)
    return basis


def invert(field, rows):
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def solve(field, rows, b):
    """One solution x of (rows) x = b, or None if inconsistent."""
    if len(rows) != len(b):
        raise DimensionError(f"{len(rows)} equations vs {len(b)} right-hand sides")
    if not rows:
        return []
    n = len(rows[0])
    aug = [list(r) + [bi] for r, bi in zip(rows, b)]
    red, pivots = rref(field, aug)
    x = linalg.zeros(field, n)
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return x


def express(field, basis, v):
    """Coordinates of v in terms of the given vectors, or None if outside
    the span: one solve of the system with the vectors as columns."""
    if not basis:
        return [] if all(field.is_zero(c) for c in v) else None
    cols = [[vec[i] for vec in basis] for i in range(len(v))]
    return solve(field, cols, v)


def express_projection(E, A_sub, B_sub):
    """E -> E onto A along B, one express per unit vector."""
    f = E.field
    basis = list(A_sub.rows) + list(B_sub.rows)
    cols = []
    for unit in linalg.identity(f, E.dim):
        coeffs = express(f, basis, unit)
        image = [f.zero] * E.dim
        for i in range(A_sub.dim):
            image = [f.add(t, f.mul(coeffs[i], a)) for t, a in zip(image, A_sub.rows[i])]
        cols.append(image)
    return LinearMap(f, E.dim, E.dim, cols)


def general_linear(f, n):
    """Every invertible n x n matrix as a LinearMap, in lexicographic order
    of the row-major entries."""
    p = f.characteristic
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if rank(f, rows) != n:
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
        if rank(f, rows) != n:
            continue
        return IsoVerdict("isomorphic", witness=LinearMap(f, n, n, images))
    return IsoVerdict("non-isomorphic", certificate="exhausted GL over the field")


def bounded_q_search(A, B, height):
    """The witness search of iso_search over Q by trying every matrix whose
    entries have height <= height, in row-major lexicographic order: the
    first isomorphism A -> B, or None."""
    f = A.field
    n = A.dim
    for flat in itertools.product(_height_values(height), repeat=n * n):
        images = [list(flat[i::n]) for i in range(n)]
        if not _hom_ok(A, B, images):
            continue
        if rank(f, images) != n:
            continue
        return LinearMap(f, n, n, images)
    return None


def scan_index(verdict, p):
    """0-based position of an isomorphic verdict's witness in the full
    row-major order of the unfiltered scan."""
    index = 0
    for row in verdict.witness.rows():
        for c in row:
            index = index * p + c
    return index


def _operator_rows(A, x):
    """The rows of L_x, the operator y -> x y."""
    units = linalg.identity(A.field, A.dim)
    return list(zip(*(_bilinear(A.field, A.sc, x, e, A.dim) for e in units)))


def _trace(f, M):
    tr = f.zero
    for d in range(len(M)):
        tr = f.add(tr, M[d][d])
    return tr


def _trace_form_ranks(A):
    """(rank of (x,y) -> tr L_{xy},  rank of (x,y) -> tr(L_x L_y)) from
    dense row matrices, with tr L_{e_i e_j} = sum_k (e_i e_j)_k tr L_{e_k}."""
    f = A.field
    ops = [_operator_rows(A, e) for e in linalg.identity(f, A.dim)]
    traces = [_trace(f, L) for L in ops]
    t1 = [mat_vec(f, row, traces) for row in A.sc]
    t2 = [[_trace(f, mat_mul(f, Li, Lj)) for Lj in ops] for Li in ops]
    return rank(f, t1), rank(f, t2)


def _element_key(A, x):
    """(tr L_x^k for k = 1..n, rank L_x, x^2 == 0, x^2 == x), the powers
    taken by dense matrix products."""
    f = A.field
    op = _operator_rows(A, x)
    traces = []
    power = op
    for _ in range(A.dim):
        traces.append(_trace(f, power))
        power = mat_mul(f, op, power)
    sq = _bilinear(f, A.sc, x, x, A.dim)
    zero = all(f.is_zero(c) for c in sq)
    return tuple(traces), rank(f, op), zero, sq == list(x)


def element_buckets(B):
    """B's p^n elements grouped by the dense _element_key, every element
    keyed on its own, in lexicographic order within each group."""
    buckets = {}
    for x in itertools.product(range(B.field.characteristic), repeat=B.dim):
        buckets.setdefault(_element_key(B, x), []).append(x)
    return buckets


def bucketed_iso_scan(A, B, budget=None, buckets=None):
    """iso_search over F_p on full element buckets: the matrices whose
    i-th column lies in the bucket of e_i's dense key, in row-major
    lexicographic order, with the budget counted in the full p^(n*n)
    order.  `buckets` may pass B's element_buckets in, built once."""
    f = A.field
    p = f.characteristic
    n = A.dim
    total = p ** (n * n)
    unknown = IsoVerdict("unknown", note=f"budget exhausted after {budget} of {total} candidates")
    buckets = element_buckets(B) if buckets is None else buckets
    columns = [buckets.get(_element_key(A, e), []) for e in linalg.identity(f, n)]
    for images in _column_tuples(columns, n):
        if budget is not None:
            index = 0
            for k in range(n):
                for col in images:
                    index = index * p + col[k]
            if index >= budget:
                return unknown
        if not _hom_ok(A, B, images):
            continue
        if rank(f, images) != n:
            continue
        return IsoVerdict("isomorphic", witness=LinearMap(f, n, n, images))
    if budget is not None and budget < total:
        return unknown
    return IsoVerdict("non-isomorphic", certificate="exhausted GL over the field")


def blockwise_quadruple_check(qd):
    """C1-C6 of psi = (r, s, t, q), each written out from the product rule
    (a,x)(b,y) = (ab + x|>b + y|>a, x<|b + y<|a + xy); returns the
    QuadrupleVerdict that `quadruple_check` must give."""
    src, tgt = qd.source, qd.target
    A, V = src.A, src.V
    A2, V2 = tgt.A, tgt.V
    f = A.field
    r, s, t, q = qd.r, qd.s, qd.t, qd.q

    def apply(m, x):
        return _linear(f, m.cols, x, m.target_dim)

    def mul(alg, u, v):
        return _bilinear(f, alg.sc, u, v, alg.dim)

    def act(action, u, v):
        return _bilinear(f, action.tensor, u, v, action._values.dim)

    def vsub(u, v):
        return [f.sub(a, b) for a, b in zip(u, v)]

    def vadd(u, v):
        return [f.add(a, b) for a, b in zip(u, v)]

    violated = []

    def run(name, residuals):
        if any(any(not f.is_zero(c) for c in res) for res in residuals):
            violated.append(name)

    # C1/C2 on A-basis pairs
    res1, res2 = [], []
    for i in range(A.dim):
        for j in range(i, A.dim):
            ab = A.sc[i][j]
            ri, rj = r.cols[i], r.cols[j]
            si, sj = s.cols[i], s.cols[j]
            lhs1 = vsub(apply(r, ab), mul(A2, ri, rj))
            rhs1 = vadd(act(tgt.left, si, rj), act(tgt.left, sj, ri))
            res1.append(vsub(lhs1, rhs1))
            lhs2 = vsub(apply(s, ab), mul(V2, si, sj))
            rhs2 = vadd(act(tgt.right, si, rj), act(tgt.right, sj, ri))
            res2.append(vsub(lhs2, rhs2))
    run("C1", res1)
    run("C2", res2)

    # C3/C4 on V-basis pairs
    res3, res4 = [], []
    for i in range(V.dim):
        for j in range(i, V.dim):
            xy = V.sc[i][j]
            ti, tj = t.cols[i], t.cols[j]
            qi, qj = q.cols[i], q.cols[j]
            lhs3 = vsub(apply(t, xy), mul(A2, ti, tj))
            rhs3 = vadd(act(tgt.left, qi, tj), act(tgt.left, qj, ti))
            res3.append(vsub(lhs3, rhs3))
            lhs4 = vsub(apply(q, xy), mul(V2, qi, qj))
            rhs4 = vadd(act(tgt.right, qi, tj), act(tgt.right, qj, ti))
            res4.append(vsub(lhs4, rhs4))
    run("C3", res3)
    run("C4", res4)

    # C5/C6 on mixed pairs
    res5, res6 = [], []
    for x in range(V.dim):
        for a in range(A.dim):
            xa_left = src.left.tensor[x][a]
            xa_right = src.right.tensor[x][a]
            ra, sa = r.cols[a], s.cols[a]
            tx, qx = t.cols[x], q.cols[x]
            lhs5 = vadd(apply(r, xa_left), apply(t, xa_right))
            rhs5 = vadd(
                vadd(mul(A2, ra, tx), act(tgt.left, sa, tx)),
                act(tgt.left, qx, ra),
            )
            res5.append(vsub(lhs5, rhs5))
            lhs6 = vadd(apply(s, xa_left), apply(q, xa_right))
            rhs6 = vadd(
                vadd(mul(V2, sa, qx), act(tgt.right, sa, tx)),
                act(tgt.right, qx, ra),
            )
            res6.append(vsub(lhs6, rhs6))
    run("C5", res5)
    run("C6", res6)

    return QuadrupleVerdict(not violated, tuple(violated))


def scan_solutions(field, names, conditions):
    """solve_fp by brute force: every point of F_p^k, in itertools.product
    order, at which each condition evaluates to zero."""
    out = []
    for flat in itertools.product(field.elements(), repeat=len(names)):
        vals = dict(zip(names, flat))
        if all(field.is_zero(c.eval(vals)) for c in conditions):
            out.append(flat)
    return out


def scan_deformations(mp):
    """enumerate_deformations as a scan of all p^(nA*nV) candidate maps."""
    nA, nV = mp.A.dim, mp.V.dim
    params, conditions = _deformation_conditions(mp)
    return tuple(
        DeformationMap(mp, [flat[j * nA : (j + 1) * nA] for j in range(nV)])
        for flat in scan_solutions(mp.A.field, params, conditions)
    )


def scan_abelian_pairs(field, n):
    """The (lambda, D columns) that enumerate_abelian_pairs admits, as a
    scan of all p^(n + n*n) candidates."""
    params, conditions = _abelian_pair_conditions(field, n)
    return [
        (flat[:n], tuple(tuple(flat[n + i * n + j] for i in range(n)) for j in range(n)))
        for flat in scan_solutions(field, params, conditions)
    ]


def cube_zero_pairs(field, n):
    """The closed form: (lambda = 0, D) for every n x n matrix D with
    D^3 = 0, in row-major lexicographic order of D."""
    out = []
    for flat in itertools.product(field.elements(), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        cube = mat_mul(field, mat_mul(field, rows, rows), rows)
        if all(field.is_zero(c) for row in cube for c in row):
            cols = tuple(tuple(rows[i][j] for i in range(n)) for j in range(n))
            out.append(((field.zero,) * n, cols))
    return out


def _lifted(R, *tensors):
    """The pair's field-valued tensors with entries in R."""
    if isinstance(R, PolyRing):
        return [_embed2(R, t) for t in tensors]
    return list(tensors)


def _apply(R, r, x):
    """r(x) for a deformation map, through the dense protocol loop."""
    return _linear(R, r.cols, [R.coerce(c) for c in x], r.mp.A.dim)


def _cross(R, tensor, r, i, j, out_dim):
    """x . r(y) + y . r(x) at x = e_i, y = e_j, for an action tensor."""
    units = linalg.identity(R, len(r.cols))
    return _vadd(
        R,
        _bilinear(R, tensor, units[i], r.cols[j], out_dim),
        _bilinear(R, tensor, units[j], r.cols[i], out_dim),
    )


def deformation_residuals(mp, r):
    """(i, j, residual) for every basis pair i <= j of V, the residual being
        r(xy) - r(x)r(y) - x |> r(y) - y |> r(x) + r(x <| r(y) + y <| r(x))
    at x = e_i, y = e_j, term by term."""
    R = r.ring
    nA, nV = mp.A.dim, mp.V.dim
    mul_a, left, right = _lifted(R, mp.A.sc, mp.left.tensor, mp.right.tensor)
    out = []
    for i in range(nV):
        for j in range(i, nV):
            lhs = _vsub(R, _apply(R, r, mp.V.sc[i][j]), _bilinear(R, mul_a, r.cols[i], r.cols[j], nA))
            rhs = _vsub(R, _cross(R, left, r, i, j, nA), _apply(R, r, _cross(R, right, r, i, j, nV)))
            out.append((i, j, _vsub(R, lhs, rhs)))
    return out


def deformed_table(mp, r):
    """The table of V_r, xy + x <| r(y) + y <| r(x), term by term."""
    R = r.ring
    nV = mp.V.dim
    right = _lifted(R, mp.right.tensor)[0]
    table = [[None] * nV for _ in range(nV)]
    for i in range(nV):
        for j in range(i, nV):
            cell = _vadd(R, [R.coerce(c) for c in mp.V.sc[i][j]], _cross(R, right, r, i, j, nV))
            table[i][j] = table[j][i] = tuple(cell)
    return tuple(map(tuple, table))


def equiv_holds(mp, r, s, sigma):
    """Whether, for every basis pair,
        sigma(xy + x <| r(y) + y <| r(x))
            = sigma(x)sigma(y) + sigma(x) <| s(sigma(y)) + sigma(y) <| s(sigma(x))."""
    R = r.ring
    nV = mp.V.dim
    mul_v, right = _lifted(R, mp.V.sc, mp.right.tensor)
    sig = [[R.coerce(c) for c in col] for col in sigma.cols]
    for i in range(nV):
        for j in range(i, nV):
            si, sj = sig[i], sig[j]
            lhs = _vadd(R, mul_v[i][j], _cross(R, right, r, i, j, nV))
            rhs = _vadd(
                R,
                _bilinear(R, right, si, _apply(R, s, sj), nV),
                _bilinear(R, right, sj, _apply(R, s, si), nV),
            )
            rhs = _vadd(R, _bilinear(R, mul_v, si, sj, nV), rhs)
            if _linear(R, sig, lhs, nV) != rhs:
                return False
    return True
