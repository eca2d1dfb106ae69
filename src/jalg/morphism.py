"""Morphisms between bicrossed products via (r, s, t, q) quadruples,
isomorphism decision at desk scale, and a two-dimensional classifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, poly
from .algebra import Algebra, LinearMap, _hom_ok, _same_field
from .errors import BudgetError, DimensionError, JalgError
from .identities import _hom_mismatches, _linear
from .matched_pair import MatchedPair


@dataclass(frozen=True)
class QuadrupleVerdict:
    ok: bool
    violated: tuple[str, ...]

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, init=False)
class MorphismQuadruple:
    """A linear map between the bicrossed products of two pairs, held as its
    block map psi(a, x) = (r(a) + t(x), s(a) + q(x)).  The blocks are
    sliced from psi's columns when read."""

    source: MatchedPair
    target: MatchedPair
    psi: LinearMap

    def __init__(
        self, source: MatchedPair, target: MatchedPair, r: LinearMap, s: LinearMap, t: LinearMap, q: LinearMap
    ):
        f = source.A.field
        _same_field(f, target.A.field, r.field, s.field, t.field, q.field)
        na, nv = source.A.dim, source.V.dim
        ma, mv = target.A.dim, target.V.dim
        shapes = [(b.source_dim, b.target_dim) for b in (r, s, t, q)]
        if shapes != [(na, ma), (na, mv), (nv, ma), (nv, mv)]:
            raise DimensionError("quadruple shapes do not match the matched pairs")
        cols = [a + v for a, v in zip(r.cols, s.cols)]
        cols += [a + v for a, v in zip(t.cols, q.cols)]
        self._set(source, target, LinearMap._of(f, na + nv, ma + mv, cols))

    @classmethod
    def _of(cls, source: MatchedPair, target: MatchedPair, psi: LinearMap):
        """The quadruple of a block map whose field and shape fit the pairs."""
        self = cls.__new__(cls)
        self._set(source, target, psi)
        return self

    def _set(self, source, target, psi):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "psi", psi)

    def _block(self, from_a: bool, to_a: bool) -> LinearMap:
        """psi's columns of one source factor, cut to one target factor."""
        psi = self.psi
        na, ma = self.source.A.dim, self.target.A.dim
        cols = range(na) if from_a else range(na, psi.source_dim)
        rows = range(ma) if to_a else range(ma, psi.target_dim)
        return LinearMap._of(
            psi.field, len(cols), len(rows), [psi.cols[j][rows.start : rows.stop] for j in cols]
        )

    @property
    def r(self) -> LinearMap:
        """A -> A'."""
        return self._block(from_a=True, to_a=True)

    @property
    def s(self) -> LinearMap:
        """A -> V'."""
        return self._block(from_a=True, to_a=False)

    @property
    def t(self) -> LinearMap:
        """V -> A'."""
        return self._block(from_a=False, to_a=True)

    @property
    def q(self) -> LinearMap:
        """V -> V'."""
        return self._block(from_a=False, to_a=False)


def quadruple_check(qd: MorphismQuadruple) -> QuadrupleVerdict:
    """The six compatibilities C1-C6 of psi = (r, s, t, q).

    They are the blocks of the homomorphism residual psi(e_i e_j) -
    psi(e_i) psi(e_j) on the two pairs' product tables: A x A basis pairs
    give C1 (A'-coordinates) and C2 (V'-coordinates), V x V pairs C3 and
    C4, mixed pairs C5 and C6.  Each is bilinear, so basis pairs are exact.
    """
    src, tgt = qd.source, qd.target
    if src.A.params or tgt.A.params:
        raise JalgError("quadruple_check handles scalar pairs only")
    n, m = src.A.dim, tgt.A.dim
    violated = set()
    for i, j, res in _hom_mismatches(
        src.A.field, src.product_sparse(), tgt.product_sparse(), qd.psi._nonzero_cols()
    ):
        names = ("C1", "C2") if j < n else ("C3", "C4") if i >= n else ("C5", "C6")
        if any(res[:m]):
            violated.add(names[0])
        if any(res[m:]):
            violated.add(names[1])
    return QuadrupleVerdict(not violated, tuple(sorted(violated)))


def quadruple_to_map(qd: MorphismQuadruple) -> LinearMap:
    """psi(a, x) = (r(a) + t(x), s(a) + q(x)) as one block matrix: the map
    the quadruple holds."""
    return qd.psi


def map_to_quadruple(
    psi: LinearMap, source: MatchedPair, target: MatchedPair
) -> MorphismQuadruple:
    """The quadruple (r, s, t, q) of psi, which it holds as it is."""
    _same_field(source.A.field, target.A.field, psi.field)
    if (
        psi.source_dim != source.A.dim + source.V.dim
        or psi.target_dim != target.A.dim + target.V.dim
    ):
        raise DimensionError("map shape does not match the product spaces")
    return MorphismQuadruple._of(source, target, psi)


# ---------------------------------------------------------------------------
# isomorphism search


@dataclass(frozen=True)
class IsoVerdict:
    kind: str  # "isomorphic" | "non-isomorphic" | "unknown"
    witness: LinearMap | None = None
    certificate: str | None = None
    note: str | None = None

    @property
    def is_isomorphic(self) -> bool:
        return self.kind == "isomorphic"

    def __repr__(self):
        detail = self.certificate or self.note or ""
        return f"IsoVerdict({self.kind}{', ' + detail if detail else ''})"


def _mult_operator(A: Algebra, x) -> list:
    """The columns of L_x, the operator y -> x y: one _linear contraction
    of x with the stacked L_{e_i} that A's element index keeps."""
    n = A.dim
    flat = _linear(A.field, _element_index(A).ops, x, n * n)
    return [flat[j * n : (j + 1) * n] for j in range(n)]


def _compose(f, a, b) -> list:
    """The columns of a b, for square operators given by their columns."""
    return [_linear(f, a, col, len(col)) for col in b]


def _trace(f, M):
    tr = f.zero
    for d in range(len(M)):
        tr = f.add(tr, M[d][d])
    return tr


def _trace_form_ranks(A: Algebra):
    """(rank of (x,y) -> tr L_{xy},  rank of (x,y) -> tr(L_x L_y))."""
    f = A.field
    t1 = [[_trace(f, _mult_operator(A, xy)) for xy in row] for row in A.sc]
    # the columns of L_{e_i} are the cells e_i e_j of row i
    t2 = [[_trace(f, _compose(f, Li, Lj)) for Lj in A.sc] for Li in A.sc]
    return linalg.rank(f, t1), linalg.rank(f, t2)


def _product_span_dim(A: Algebra) -> int:
    rows = [list(A.sc[i][j]) for i in range(A.dim) for j in range(A.dim)]
    return linalg.rank(A.field, rows)


def invariant_signature(A: Algebra):
    """Cheap exact isomorphism invariants valid over any field."""
    if A.params:
        raise JalgError("invariant_signature handles scalar algebras only")
    r1, r2 = _trace_form_ranks(A)
    return (_product_span_dim(A), r1, r2)


@dataclass(frozen=True)
class Dim2Signature:
    product_span_dim: int
    trace_mul_rank: int
    trace_op_rank: int
    idempotents: int | None  # exact element counts, finite fields only
    square_zero: int | None

    def as_tuple(self):
        return (
            self.product_span_dim,
            self.trace_mul_rank,
            self.trace_op_rank,
            self.idempotents,
            self.square_zero,
        )


def classify_dim2(A: Algebra) -> Dim2Signature:
    """Invariant tuple for 2-dimensional algebras.

    Over a finite field the idempotent and square-zero element counts are
    exact (read off the element index, which covers every element); over
    Q they are omitted, since a bounded search would not be an isomorphism
    invariant.
    """
    if A.dim != 2:
        raise DimensionError("classifier is for dimension 2")
    if not A.is_jordan:
        raise JalgError("classifier expects a Jordan algebra")
    span, r1, r2 = invariant_signature(A)
    idem = sqz = None
    if A.field.characteristic:
        idem, sqz = _element_index(A).counts()
    return Dim2Signature(span, r1, r2, idem, sqz)


# The searches over GL(n, F_p) walk up to p^(n*n) matrices; n = 4 is
# already 5^16 at the smallest supported field.
GL_SEARCH_MAX_DIM = 3
# The witness height of iso_search over Q when no budget is given: entries
# n/d with |n|, d <= ISO_Q_HEIGHT.
ISO_Q_HEIGHT = 2


def _operator_invariants(A: Algebra, x) -> tuple:
    """((tr L_x^k for k = 1..n), rank L_x, x^2): what an element key is
    read from."""
    f = A.field
    op = _mult_operator(A, x)
    traces = [_trace(f, op)]
    power = op
    for _ in range(1, A.dim):
        power = _compose(f, op, power)
        traces.append(_trace(f, power))
    return tuple(traces), linalg.rank(f, op), _linear(f, op, x, A.dim)


def _key(f, x, invariants) -> tuple:
    """The element key of x from its _operator_invariants."""
    traces, rank, sq = invariants
    return traces, rank, all(f.is_zero(c) for c in sq), sq == list(x)


def _element_key(A: Algebra, x) -> tuple:
    """(tr L_x^k for k = 1..n, rank L_x, x^2 == 0, x^2 == x).

    An isomorphism phi has L_{phi(x)} = phi L_x phi^-1, so phi(x) has the
    key of x."""
    return _key(A.field, x, _operator_invariants(A, x))


def _element_index(A: Algebra) -> "_ElementIndex":
    """A's element index, built on first use and kept on that Algebra
    instance (never shared between equal tables)."""
    if A._element_index is None:
        A._element_index = _ElementIndex(A)
    return A._element_index


class _ElementIndex:
    """What the isomorphism search reads of one algebra's elements.

    `ops` stacks the operators L_{e_i}, flattened column by column, so
    that L_x = sum x_i L_{e_i} is one _linear contraction.  Over F_p the
    index keeps _operator_invariants once per element it was asked about:
    the source's basis vectors, and the lines through the origin (the zero
    vector and every element whose first nonzero coordinate is 1).  The
    product is bilinear, so L_{cx} = c L_x: for c != 0 the element cx has
    traces c^k tr L_x^k, the rank of L_x, and (cx)^2 = c^2 x^2.  The
    elements of one key are read off the lines once and kept per key."""

    __slots__ = ("algebra", "ops", "_invariants", "_lines", "_basis_keys", "_columns")

    def __init__(self, A: Algebra):
        self.algebra = A
        self.ops = [[c for cell in row for c in cell] for row in A.sc]
        self._invariants: dict[tuple, tuple] = {}
        self._lines: list | None = None
        self._basis_keys: list | None = None
        self._columns: dict[tuple, list] = {}

    def invariants(self, x: tuple) -> tuple:
        """_operator_invariants of x, built once per element."""
        got = self._invariants.get(x)
        if got is None:
            got = self._invariants[x] = _operator_invariants(self.algebra, x)
        return got

    def basis_keys(self) -> list:
        """The element keys of e_1, ..., e_n."""
        if self._basis_keys is None:
            f = self.algebra.field
            units = map(tuple, linalg.identity(f, self.algebra.dim))
            self._basis_keys = [_key(f, e, self.invariants(e)) for e in units]
        return self._basis_keys

    def lines(self) -> list:
        """(x, invariants of x) for the zero vector and for each element
        whose first nonzero coordinate is 1, one per line through the
        origin."""
        if self._lines is None:
            p, n = self.algebra.field.characteristic, self.algebra.dim
            xs = [(0,) * n]
            for lead in range(n):
                head = (0,) * lead + (1,)
                xs += [head + rest for rest in itertools.product(range(p), repeat=n - lead - 1)]
            self._lines = [(x, self.invariants(x)) for x in xs]
        return self._lines

    def column(self, key: tuple) -> list:
        """The elements whose key is `key`, in lexicographic order.

        A line x matches only with its rank and its x^2 == 0; its scalar c
        is fixed by the first trace when tr L_x != 0, and otherwise each
        c = 1..p-1 is tried.  The zero vector is its own line (c = 1)."""
        got = self._columns.get(key)
        if got is not None:
            return got
        p = self.algebra.field.characteristic
        traces, rank, square_zero, idempotent = key
        found = []
        for x, (tr, rk, sq) in self.lines():
            if rk != rank or any(sq) == square_zero:
                continue
            if not any(x):
                scalars = (1,)
            elif tr[0]:
                scalars = (traces[0] * pow(tr[0], p - 2, p) % p,)
            else:
                scalars = () if traces[0] else range(1, p)
            for c in scalars:
                if not c or ([c * v % p for v in sq] == list(x)) != idempotent:
                    continue
                ck = 1
                for t, want in zip(tr, traces):
                    ck = ck * c % p
                    if t * ck % p != want:
                        break
                else:
                    found.append(tuple(c * v % p for v in x))
        found.sort()
        self._columns[key] = found
        return found

    def counts(self) -> tuple[int, int]:
        """(idempotent elements, nonzero square-zero elements).  On the
        line of x != 0, cx is idempotent iff c x^2 = x, so only c = 1 /
        (x^2)_l can be, l the first nonzero coordinate of x; every cx is
        square-zero iff x^2 = 0."""
        p = self.algebra.field.characteristic
        idempotents, square_zero = 0, 0
        for x, (_, _, sq) in self.lines():
            if not any(x):
                idempotents += 1
            elif not any(sq):
                square_zero += p - 1
            else:
                s = sq[x.index(1)]
                if s and [v * pow(s, p - 2, p) % p for v in sq] == list(x):
                    idempotents += 1
        return idempotents, square_zero


def _column_tuples(columns, n: int):
    """Every tuple (c_0, ..., c_{n-1}) with c_i drawn from columns[i] (each
    sorted lexicographically), in the row-major lexicographic order of the
    matrix whose columns they are."""
    # extend[i][prefix]: the values that continue prefix within columns[i]
    extend = []
    for cands in columns:
        table = {}
        for vec in cands:
            for k in range(n):
                vals = table.setdefault(vec[:k], [])
                if not vals or vals[-1] != vec[k]:
                    vals.append(vec[k])
        extend.append(table)

    def rows_from(k, prefixes):
        if k == n:
            yield prefixes
            return
        choices = [table.get(pre, ()) for table, pre in zip(extend, prefixes)]
        for row in itertools.product(*choices):
            yield from rows_from(k + 1, tuple(pre + (v,) for pre, v in zip(prefixes, row)))

    return rows_from(0, ((),) * n)


def _first_iso(A: Algebra, B: Algebra, columns, budget: int | None = None) -> LinearMap | None:
    """The first isomorphism A -> B in row-major lexicographic order whose
    i-th column is drawn from columns[i], or None: the one witness walk
    over F_p and over Q.  An isomorphism maps e_i to an element of B with
    the element key of e_i, so columns that hold B's elements of those
    keys, each in lexicographic order, skip only matrices that cannot be
    isomorphisms.  With a budget (over F_p) the walk stops at the first
    matrix whose index in the full p^(n*n) order is not below it."""
    f, n = A.field, A.dim
    p = f.characteristic
    for images in _column_tuples(columns, n):
        if budget is not None:
            index = 0
            for k in range(n):
                for col in images:
                    index = index * p + col[k]
            if index >= budget:
                return None
        if _hom_ok(A, B, images) and linalg.rank(f, images) == n:
            return LinearMap._of(f, n, n, images)
    return None


def _exhaustive_fp(A: Algebra, B: Algebra, budget: int | None) -> IsoVerdict:
    """Scan GL(n, F_p) in row-major lexicographic order for an isomorphism,
    column i drawn from B's elements of e_i's key (_ElementIndex.column).
    The budget counts candidates in the full p^(n*n) order, as if every
    matrix had been tried."""
    total = A.field.characteristic ** (A.dim * A.dim)
    columns = [_element_index(B).column(key) for key in _element_index(A).basis_keys()]
    witness = _first_iso(A, B, columns, budget)
    if witness is not None:
        return IsoVerdict("isomorphic", witness=witness)
    if budget is not None and budget < total:
        return IsoVerdict("unknown", note=f"budget exhausted after {budget} of {total} candidates")
    return IsoVerdict("non-isomorphic", certificate="exhausted GL over the field")


def _height_values(budget: int):
    vals = {Fraction(0)}
    for num in range(1, budget + 1):
        for den in range(1, budget + 1):
            vals.add(Fraction(num, den))
            vals.add(Fraction(-num, den))
    return sorted(vals)


def _height_columns(A: Algebra, B: Algebra, height: int) -> list:
    """For each basis vector e_i of A, the elements of B whose entries have
    height <= height and whose element key is that of e_i, in
    lexicographic order: _first_iso's columns over Q.  A box of more than
    poly.SOLVE_NODE_BUDGET matrices is refused up front."""
    values = _height_values(height)
    total = len(values) ** (A.dim * A.dim)
    if total > poly.SOLVE_NODE_BUDGET:
        raise BudgetError(
            f"the witness search of height {height} over Q would try {total} matrices, "
            f"more than {poly.SOLVE_NODE_BUDGET}"
        )
    by_key: dict[tuple, list] = {}
    for x in itertools.product(values, repeat=B.dim):
        by_key.setdefault(_element_key(B, x), []).append(x)
    return [by_key.get(key, []) for key in _element_index(A).basis_keys()]


def iso_search(A: Algebra, B: Algebra, budget: int | None = None) -> IsoVerdict:
    """Decide isomorphism where feasible; the field and the dimension
    choose the path.

    Over F_p at dim <= GL_SEARCH_MAX_DIM it scans every matrix over the
    field, a complete decision procedure.  Otherwise it compares exact
    invariants and, over Q at dim <= 2, falls back to the same witness
    walk over the bounded-height box (_height_columns), answering unknown
    when neither settles it.  The note of an unknown says whether a
    witness search ran.  A height whose box holds more than
    poly.SOLVE_NODE_BUDGET matrices raises BudgetError.
    """
    if A.field is not B.field:
        return IsoVerdict("non-isomorphic", certificate="different ground fields")
    if A.params or B.params:
        raise JalgError("iso_search handles scalar algebras only")
    if A.dim != B.dim:
        return IsoVerdict(
            "non-isomorphic", certificate=f"dimensions differ: {A.dim} vs {B.dim}"
        )
    f = A.field
    if f.characteristic and A.dim <= GL_SEARCH_MAX_DIM:
        return _exhaustive_fp(A, B, budget)
    sig_a, sig_b = invariant_signature(A), invariant_signature(B)
    if sig_a != sig_b:
        return IsoVerdict(
            "non-isomorphic",
            certificate=f"(product span, trace ranks) differ: {sig_a} vs {sig_b}",
        )
    if f.characteristic:
        note = f"invariants agree; no witness search over {f} at dimension {A.dim}"
        return IsoVerdict(
            "unknown", note=note + f" (the exhaustive search covers dim <= {GL_SEARCH_MAX_DIM})"
        )
    if A.dim > 2:
        note = f"invariants agree; no witness search at dimension {A.dim}"
        return IsoVerdict("unknown", note=note + " (the Q witness search covers dim <= 2)")
    height = ISO_Q_HEIGHT if budget is None else budget
    witness = _first_iso(A, B, _height_columns(A, B, height))
    if witness is not None:
        return IsoVerdict("isomorphic", witness=witness)
    return IsoVerdict("unknown", note=f"invariants agree; no witness of height <= {height} found")
