"""Symbolic verification of algebra and matched-pair axioms.

Every "for all elements" axiom is a polynomial identity in the coordinates
of generic elements (vectors of fresh indeterminates): it holds iff every
coefficient of that polynomial is zero.  Over Q this is exactly the
functional identity; over F_p it is equivalent because every axiom here
has per-indeterminate degree <= 3 < p.

Each axiom is the cube law w (w^2 m) = w^2 (w m) or one homogeneous piece
of it.  _cube_coefficients computes each coefficient as a weighted sum of
commutators [S_r, S_t] of basis operators, in plain integers.  Each
nonzero commutator is added only into the basis triples of w that it
reaches, through the products e_p e_q with a t-coordinate, and residual
polynomials are built only on a FAIL.  It is still a proof: a triple
that no nonzero commutator reaches has coefficient 0, and every triple
reached is checked.
The Jordan identity and an action law alone are the law itself.  On a
pair's product table (_pair_product) one pass decides all ten pair
axioms, as A x V is Jordan exactly when the pair is matched;
matched_pair_verdict reads each axiom's residuals off its piece.  A Jordan
bimodule M over A is the pair of A and the abelian M with x <| a = a . x
and no left action: its two laws are the right-action and MP3 pieces, and
its null split extension is that pair's product.  That is the
one route here to each axiom: the laws expanded in generic elements
(MP1-MP6 among them) are the tests' independent oracles, in
tests/slow_oracles.py.  With indeterminate table entries the
coefficients are polynomial conditions on them (the abelian-pair census).

With declared parameters the parameters stay indeterminates too.  A PASS
then holds at every specialization; a FAIL means the identity fails as a
polynomial identity in the parameters.  Over Q some specialization then
fails, but over F_p it need not: a residual with the factor alpha^p - alpha
vanishes at every point of F_p.

Tensor conventions (entries are raw field values, or Poly in declared
parameters for one-parameter families):

* multiplication  mul[i][j]   = coordinate vector of e_i e_j
* right action    right[x][a] = coordinate vector of e_x <| e_a  (in V)
* left action     left[x][a]  = coordinate vector of e_x |> e_a  (in A)
* acting algebra  act[i][m]   = coordinate vector of e_i acting on m_m
                               (action_law_verdict's acting-first form)

The contractions read a tensor in its sparse form (_sparse):
t[i][j] = ((k, c), ...) over the nonzero entries of cell (i, j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import JalgError
from .fields import Field
from .poly import Poly, PolyRing

MP_AXIOMS = ("MP1", "MP2", "MP3", "MP4", "MP5", "MP6")
# everything MatchedPair.verify decides, in the order it reports them
PAIR_AXIOMS = ("jordan-A", "jordan-V", "right-action", "left-action") + MP_AXIOMS

# With one action zero the other three MP axioms hold for degree reasons;
# the surviving three specialize to the semidirect compatibilities.
_LEFT_FROM_MP = {"MP1": "L1", "MP4": "L2", "MP6": "L3"}
_RIGHT_FROM_MP = {"MP2": "R1", "MP3": "R2", "MP5": "R3"}


@dataclass(frozen=True)
class AxiomFailure:
    """One nonzero coordinate of an expanded axiom."""

    axiom: str
    space: str  # which side of the product the coordinate lives in
    index: int
    residual: Poly

    def witness(self) -> str:
        """The residual's leading monomial, as printed first, with its coefficient."""
        exp, coeff = self.residual.leading_term()
        ring = self.residual.ring
        mono = Poly(ring, {exp: ring.field.one})
        return f"coefficient {ring.field.format(coeff)} at {mono}"

    def __str__(self) -> str:
        return f"{self.axiom}[{self.space}:{self.index}] residual {self.residual}"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failures: tuple[AxiomFailure, ...]
    checked: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok

    def failed_axioms(self) -> tuple[str, ...]:
        out: list[str] = []
        for f in self.failures:
            if f.axiom not in out:
                out.append(f.axiom)
        return tuple(out)

    def describe(self) -> str:
        if self.ok:
            return "pass (" + ", ".join(self.checked) + ")"
        lines = ["fail"]
        lines += [f"  {f}" for f in self.failures]
        return "\n".join(lines)


def _verdict(failures: list[AxiomFailure], checked) -> Verdict:
    return Verdict(not failures, tuple(failures), tuple(checked))


# ---------------------------------------------------------------------------
# working ring construction


def _generic_names(params, groups) -> tuple[str, ...]:
    """The parameters plus one name per generic coordinate, checked for clashes."""
    names = list(params)
    taken = set(names)
    if len(taken) != len(names):
        raise JalgError(f"duplicate parameter names in {params}")
    for prefix, dim in groups:
        for i in range(dim):
            name = f"{prefix}{i}"
            if name in taken:
                raise JalgError(f"parameter {name!r} collides with a generic coordinate")
            taken.add(name)
            names.append(name)
    return tuple(names)


def generic_ring(field: Field, params, groups):
    """Ring in the parameters plus one indeterminate per generic coordinate.

    groups: sequence of (prefix, dim).  Returns (ring, {prefix: vector}).
    """
    ring = PolyRing(field, _generic_names(params, groups))
    vectors = {
        prefix: [ring.var(f"{prefix}{i}") for i in range(dim)] for prefix, dim in groups
    }
    return ring, vectors


def _sparse(table, ring) -> tuple:
    """The one sparse form of a table of vectors, t[i][j] = ((k, c), ...)
    over the nonzero entries c of cell (i, j), in ascending k, coerced into
    `ring`: the form every contraction reads."""

    def cell_form(cell):
        out = []
        for k, c in enumerate(cell):
            # most entries are zero: coerce only the others (an
            # unreduced F_p int may still coerce to zero)
            if c:
                v = ring.coerce(c)
                if not ring.is_zero(v):
                    out.append((k, v))
        return tuple(out)

    return tuple(tuple(cell_form(cell) for cell in row) for row in table)


def _bilinear(ring, table, u, v, out_dim: int) -> list:
    """sum over i, j of u_i v_j table[i][j]: the one bilinear contraction,
    over the table's sparse form (_sparse).

    It runs in the entries' own operators: int or Fraction over a Field,
    reduced mod p once per output coordinate (so F_p inputs may be
    unreduced ints), or Poly over a PolyRing, which reduces as it goes.
    """
    out = [ring.zero] * out_dim
    for i, ui in enumerate(u):
        if ui:
            row = table[i]
            for j, vj in enumerate(v):
                if vj:
                    w = ui * vj
                    for k, c in row[j]:
                        out[k] += w * c
    p = getattr(ring, "characteristic", 0)  # a PolyRing has none to reduce by
    return [c % p for c in out] if p else out


def _linear(ring, cols, x, out_dim: int) -> list:
    """sum over j of x_j cols[j]: the one linear contraction, on dense
    columns, in the same arithmetic as _bilinear."""
    out = [ring.zero] * out_dim
    for xj, col in zip(x, cols):
        if xj:
            for k, c in enumerate(col):
                if c:
                    out[k] += xj * c
    p = getattr(ring, "characteristic", 0)
    return [c % p for c in out] if p else out


def _nonzero_columns(cols) -> list:
    """Each column's nonzero entries, [(t, y), ...] in ascending t: the
    form _hom_mismatches reads a map's images in (LinearMap keeps it)."""
    return [[(t, y) for t, y in enumerate(col) if y] for col in cols]


def _hom_mismatches(ring, table, table2, cols):
    """The one homomorphism residual: yield (i, j, residual) for each basis
    pair i <= j of `table` where the residual, image of e_i e_j minus
    (image of e_i)(image of e_j) in `table2`, is not zero.  Both tables are
    in their sparse form (_sparse) and the images in theirs
    (_nonzero_columns); they all live in `ring`: a Field, or a PolyRing
    for parametric maps.

    Both sides of a pair are summed into one accumulator, in one loop over
    the tables and the images' nonzero entries, in the arithmetic of
    _bilinear: over F_p it is reduced mod p once per coordinate.  It is
    compared with a list of the one zero it starts from, so a coordinate
    no term reached costs an identity test, not a Fraction or Poly one."""
    n, out_dim = len(table), len(table2)
    p = getattr(ring, "characteristic", 0)
    zeros = [ring.zero] * out_dim
    for i in range(n):
        row, col_i = table[i], cols[i]
        for j in range(i, n):
            res = zeros.copy()
            for k, c in row[j]:
                for t, y in cols[k]:
                    res[t] += c * y
            col_j = cols[j]
            for s, x in col_i:
                row2 = table2[s]
                for t, y in col_j:
                    w = x * y
                    for k, c in row2[t]:
                        res[k] -= w * c
            if p:
                res = [c % p for c in res]
            if res != zeros:
                yield i, j, res


def _vadd(ring, u, v):
    return [ring.add(a, b) for a, b in zip(u, v)]


def _vsub(ring, u, v):
    return [ring.sub(a, b) for a, b in zip(u, v)]


def _vscale(ring, c, u):
    return [ring.mul(c, a) for a in u]


# ---------------------------------------------------------------------------
# the cube law, coefficient by coefficient


def _lift(field: Field, params, mul, act, sparse=None):
    """mul and act in the cube-law loops' arithmetic, in their sparse form
    (_sparse).  A caller that keeps mul's sparse form (Algebra.sparse_sc,
    MatchedPair.product_sparse) passes it as `sparse` when act is mul, and
    it is read as it is.

    Returns (mul, act, nonzero, decode).  Over F_p entries stay ints and are
    reduced only by nonzero and decode.  Over Q both tensors are scaled by
    D, the lcm of all denominators, so the loops run in ints; the cube law
    is cubic in the entries, so an accumulated coefficient is D^3 times the
    true one.  With parameters the entries are Poly in them.
    """
    if params:
        ring = PolyRing(field, params)
        nonzero, decode = (lambda v: v.terms), (lambda v: v)
    elif field.characteristic:
        p = field.characteristic
        ring, nonzero = field, p.__rmod__  # v -> v % p
        decode = nonzero
    else:  # Q: decode is set once the scale is known
        ring, nonzero = field, bool

    if sparse is not None:
        sparse = [sparse]
    else:
        sparse = [_sparse(t, ring) for t in ([mul] if act is mul else [mul, act])]
    if not params and not field.characteristic:
        scale = math.lcm(*(c.denominator for t in sparse for row in t for cell in row for _, c in cell))
        sparse = [
            [[[(o, c.numerator * (scale // c.denominator)) for o, c in cell] for cell in row] for row in t]
            for t in sparse
        ]
        cube = scale**3

        def decode(v):
            return Fraction(v, cube)

    return sparse[0], sparse[-1], nonzero, decode


def _operator(cols, m: int):
    """An m x m operator as its sparse columns [(row, entry), ...] and the
    flat list (l * m, row, entry) of its entries, column by column."""
    return cols, [(l * m, o, v) for l, col in enumerate(cols) for o, v in col]


def _commutator(S, r: int, t: int, nonzero) -> tuple:
    """[S_r, S_t] = S_r S_t - S_t S_r for operators S (_operator), as the
    pairs (l * m + o, entry) of its nonzero entries."""
    r_cols, r_flat = S[r]
    t_cols, t_flat = S[t]
    acc: dict = {}
    for lm, s, u in t_flat:  # + S_r S_t
        for o, v in r_cols[s]:
            acc[lm + o] = acc.get(lm + o, 0) + v * u
    for lm, s, v in r_flat:  # - S_t S_r
        for o, u in t_cols[s]:
            acc[lm + o] = acc.get(lm + o, 0) - u * v
    return tuple((key, c) for key, c in acc.items() if nonzero(c))


def _cube_coefficients(field: Field, mul, act, params, sparse=None):
    """The nonzero coefficients of the cube law w (w^2 m) = w^2 (w m).

    mul is the (symmetric) table of the acting algebra and act[r][l] the
    coordinates of e_r acting on m_l; the Jordan identity is act = mul.
    `sparse` is mul's sparse form when act is mul and the caller keeps it
    (_lift).  Returns ({o: {(i, j, k, l): c}}, decode), with c the
    coefficient of w_i w_j w_k m_l in coordinate o (i <= j <= k) in the
    loops' arithmetic (see _lift) and decode(c) its value: a field element,
    or a Poly in the parameters.

    Write S_r for the operator of e_r.  The coefficient is entry (o, l) of
    the sum, over the distinct r in {i, j, k}, of [S_r, U_pq], with {p, q}
    the other two indices, U_pq = sum_t mul[p][q][t] S_t the operator of
    e_p e_q, and weight 2 when p != q.  That is term for term the generic
    expansion's polynomial, so the law holds iff there is no coefficient,
    over Q and F_p alike.  As [S_r, U_pq] = sum_t mul[p][q][t] [S_r, S_t],
    each coefficient is a weighted sum of commutators [S_r, S_t].

    So the loop visits only the triples that a nonzero commutator reaches.
    For each product e_p e_q (p <= q) and each t in its support, the
    partners of t are the r with [S_r, S_t] nonzero, found once per t; each
    commutator is built once, on first use (_commutator, r < t, kept as its
    nonzero entries; [S_t, S_r] is its negative and [S_r, S_r] = 0 is
    skipped).  Each partner r reaches the sorted triple of (r, p, q); an
    empty commutator (orthogonal idempotents, separate blocks of a direct
    sum) reaches none.  The reached triples are then summed one at a time,
    in ascending order, as a loop over every triple would sum them, so the
    output, order included, is that loop's.  One accumulator per reached
    triple, all alive at once, would save that second look-up but hold
    about 0.65 MB more on Sym_7 over Q.  Sym_7 (dim 28) reaches 1029 of
    its 4060 triples, with 147 of its 378 commutators nonzero; the block
    sum of the four catalog pair products, twice over (dim 36), reaches 60
    of 8436 triples, with 34 of 630 nonzero.
    """
    n = len(mul)
    m = len(act[0]) if n else 0
    mul_s, act_s, nonzero, decode = _lift(field, params, mul, act, sparse)
    S = [_operator(cols, m) for cols in act_s]
    # commutators[r][t] = commutators[t][r] = [S_min(r,t), S_max(r,t)];
    # [S_r, S_r] = 0 is empty from the start
    commutators = [[() if r == t else None for t in range(n)] for r in range(n)]
    partners = [None] * n  # partners[t]: each r with [S_r, S_t] nonzero
    reached = set()  # each triple (i, j, k), i <= j <= k, reached
    for p in range(n):
        row = mul_s[p]
        for q in range(p, n):
            for t, _ in row[q]:
                rs = partners[t]
                if rs is None:
                    rs = partners[t] = []
                    col = commutators[t]
                    for r in range(n):
                        if col[r] is None:
                            col[r] = commutators[r][t] = _commutator(S, *((r, t) if r < t else (t, r)), nonzero)
                        if col[r]:
                            rs.append(r)
                for r in rs:
                    reached.add((r, p, q) if r <= p else (p, r, q) if r <= q else (p, q, r))
    bad: dict[int, dict] = {}  # coordinate -> {(i, j, k, l): accumulated value}
    for i, j, k in sorted(reached):
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
            row = commutators[r]
            for t, c in mul_s[p][q]:
                entries = row[t]
                if entries:
                    wc = w * c if r < t else -w * c
                    for x, v in entries:
                        acc[x] = acc.get(x, 0) + wc * v
        if any(map(nonzero, acc.values())):
            for x, c in acc.items():
                if nonzero(c):
                    l, o = divmod(x, m)
                    bad.setdefault(o, {})[i, j, k, l] = c
    return bad, decode


def _residual(ring, coefficients, wpos, mpos, decode, params) -> Poly:
    """One coordinate's coefficients {(i, j, k, l): c} (_cube_coefficients)
    as the Poly sum of c w_i w_j w_k m_l, w_t and m_l at wpos[t], mpos[l]."""
    terms = {}
    for (i, j, k, l), c in coefficients.items():
        exp = [0] * len(ring.names)
        for t in (i, j, k):
            exp[wpos[t]] += 1
        exp[mpos[l]] = 1
        if params:
            for pexp, pc in decode(c).embed(ring).terms.items():
                terms[tuple(a + b for a, b in zip(exp, pexp))] = pc
        else:
            terms[tuple(exp)] = decode(c)
    return Poly(ring, terms)


# ---------------------------------------------------------------------------
# single-algebra axioms


def action_law_verdict(
    field: Field,
    mul_acting,
    act,
    params=(),
    acting_prefix: str = "x",
    module_prefix: str = "m",
    axiom: str = "action-law",
    space: str = "M",
    stop_early: bool = False,
    sparse=None,
) -> Verdict:
    """w (w^2 m) = w^2 (w m) for a generic acting element w and module element m.

    act[w][m] is the coordinate vector of basis vector w acting on module
    basis vector m.  This single law covers the right-action axiom (A acting
    on V; a bimodule's square law), the left-action axiom (V acting on A)
    and the Jordan identity (A on itself).  Only on a FAIL are the
    residuals built from _cube_coefficients; with stop_early only the first
    failing coordinate is reported.  `sparse` is mul_acting's
    cached sparse form when act is mul_acting (_lift).
    """
    dim_w = len(mul_acting)
    dim_m = len(act[0]) if dim_w else 0
    names = _generic_names(params, [(acting_prefix, dim_w), (module_prefix, dim_m)])
    bad, decode = _cube_coefficients(field, mul_acting, act, params, sparse)
    failures = []
    if bad:
        ring = PolyRing(field, names)
        wpos = [ring._index[f"{acting_prefix}{i}"] for i in range(dim_w)]
        mpos = [ring._index[f"{module_prefix}{l}"] for l in range(dim_m)]
        for o in sorted(bad)[:1] if stop_early else sorted(bad):
            failures.append(AxiomFailure(axiom, space, o, _residual(ring, bad[o], wpos, mpos, decode, params)))
    return _verdict(failures, [axiom])


def jordan_verdict(field: Field, mul, params=(), stop_early: bool = False, sparse=None) -> Verdict:
    """(a^2 b) a = a^2 (b a) with generic a, b: the action law of A on
    itself.  `sparse` is mul's cached sparse form, if the caller keeps one."""
    return action_law_verdict(field, mul, mul, params, "a", "b", "jordan", "A", stop_early, sparse)


# ---------------------------------------------------------------------------
# a pair's product table and its pieces: the matched-pair axioms


def _pair_product(mul_a, mul_v, right, left, zero) -> tuple:
    """Structure constants of the candidate product on A x V: the A basis,
    then the V basis, and cell (a, x) = (x |> a, x <| a), so that
    (a,x)(b,y) = (ab + x|>b + y|>a, x<|b + y<|a + xy)."""
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


def _pair_sparse(sparse_a, sparse_v, right, left) -> tuple:
    """_sparse of _pair_product's table, assembled from the factors' sparse
    forms and the actions' nonzero entries instead of read off the dense
    product: A x A cells are A's, V x V cells are V's with k shifted by
    n = dim A, and cell (a, x) = (x, a) holds the nonzeros of x |> a, then
    those of x <| a shifted by n.  The actions hold ring values, which are
    nonzero exactly when true."""
    n, m = len(sparse_a), len(sparse_v)
    sc = [list(row) + [None] * m for row in sparse_a]
    for row in sparse_v:
        sc.append([None] * n + [tuple([(n + k, c) for k, c in cell]) for cell in row])
    for x in range(m):
        lrow, rrow, vrow = left[x], right[x], sc[n + x]
        for a in range(n):
            lc, rc = lrow[a], rrow[a]
            sc[a][n + x] = vrow[a] = tuple(compress(enumerate(lc), lc)) + tuple(
                compress(enumerate(rc, n), rc)
            )
    return tuple(map(tuple, sc))


# Axioms as pieces of a product's cube law, w = (a, x) and m = (b, y) (the
# linearized Jordan identity): (w in A, m in A, coordinate in A) ->
# (axiom, its space, name of m), w None when mixed.  On a pair's product
# these are all the pieces that can be nonzero: the other two, (True,
# True, False) and (False, False, True), vanish as A and V are subalgebras.
_PAIR_PIECES = {
    (True, True, True): ("jordan-A", "A", "b"),
    (False, False, False): ("jordan-V", "V", "y"),
    (True, False, False): ("right-action", "M", "x"),
    (False, True, True): ("left-action", "M", "a"),
    (True, False, True): ("MP1", "A", "x"),
    (False, True, False): ("MP2", "V", "a"),
    (None, True, False): ("MP3", "V", "b"),
    (None, False, True): ("MP4", "A", "y"),
    (None, False, False): ("MP5", "V", "y"),
    (None, True, True): ("MP6", "A", "b"),
}


def matched_pair_verdict(
    field: Field, table, n: int, params=(), stop_early: bool = False, sparse=None
) -> Verdict:
    """The ten PAIR_AXIOMS, decided by the cube law of the pair's product
    `table` (_pair_product, with dim A = n): A x V is Jordan exactly when
    (A, V, <|, |>) is a matched pair.

    Each axiom is one piece of the product's coefficients (_PAIR_PIECES),
    read off one _cube_coefficients pass.  On a FAIL its residuals are read
    off them, in generic_ring(field, params, a, b, x, y) with a w index
    named a_t in A and x_t in V; a parameter that clashes with those names
    is an error, PASS or FAIL.  With stop_early only the first failing
    (axiom, coordinate) is reported, and `checked` ends at its axiom.
    `sparse` is the table's cached sparse form (MatchedPair.product_sparse),
    if the caller keeps one.
    """
    m = len(table) - n
    groups = [("a", n), ("b", n), ("x", m), ("y", m)]
    _generic_names(params, groups)
    bad, decode = _cube_coefficients(field, table, table, params, sparse)
    axioms = PAIR_AXIOMS
    found: dict = {}  # (place in axioms, coordinate, piece) -> {(i, j, k, l): c}
    for o, coefficients in bad.items():
        for key, c in coefficients.items():
            w = {t < n for t in key[:3]}
            piece = _PAIR_PIECES.get((w.pop() if len(w) == 1 else None, key[3] < n, o < n))
            if piece:
                found.setdefault((axioms.index(piece[0]), o, piece), {})[key] = c
    if stop_early and found:
        first = min(found)
        found, axioms = {first: found[first]}, axioms[: first[0] + 1]
    if not found:
        return _verdict([], axioms)
    ring, _ = generic_ring(field, params, groups)
    # product index t -> position of a_t, b_t (t < n) or x_(t-n), y_(t-n); else None
    pos = {v: [ring._index.get(f"{v}{t - n * (v in 'xy')}") for t in range(n + m)] for v in "abxy"}
    failures = []
    for (_, o, (axiom, space, name)), cs in sorted(found.items()):
        residual = _residual(ring, cs, pos["a"][:n] + pos["x"][n:], pos[name], decode, params)
        failures.append(AxiomFailure(axiom, space, o if o < n else o - n, residual))
    return _verdict(failures, axioms)


def _rename(verdict: Verdict, mapping) -> Verdict:
    failures = tuple(
        AxiomFailure(mapping[f.axiom], f.space, f.index, f.residual)
        for f in verdict.failures
    )
    checked = tuple(mapping[name] for name in verdict.checked)
    return Verdict(verdict.ok, failures, checked)
