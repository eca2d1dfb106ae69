"""Complement deformation machinery.

A linear map r : V -> A satisfying the deformation identity bends the
multiplication of V into a new Jordan algebra V_r whose graph inside the
bicrossed product is again a complement of A.  Enumerating the maps and
grouping them by equivalence computes the factorization index.

The identity is one fact about E's table in a basis of A followed by a
complement: r is a deformation map iff its graph {r(x) + x} is closed.
`_graph_pass` reads it off (table, dim A) alone, one product
(r(x), x)(r(y), y) per basis pair, which gives each residual and V_r's
row.  Each map keeps its verdict and V_r's table from that pass: one pass
per map serves the enumeration, `r_deform` and `equiv_check`.  V_r, the
Algebra on that table, is built on the first `r_deform` or `equiv_check`
and kept; a check alone builds none.  `Factorization` decides the graph
and bbar splits.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import (
    Algebra,
    LinearMap,
    Subspace,
    _label_coords,
    _label_index,
    _same_field,
    _vector,
    format_combination,
    hom_check,
)
from .errors import BudgetError, DimensionError, JalgError, VerificationError
from .fields import Field
from .identities import _bilinear, _hom_mismatches, _linear, _vsub
from .matched_pair import (
    BicrossedProduct,
    Factorization,
    MatchedPair,
    _require_matched,
    bicross,
    canonical_pair,
)
from .morphism import GL_SEARCH_MAX_DIM, iso_search
from .poly import PolyRing, solve_fp


class DeformationMap:
    """Linear map from the complement factor V into A, with optional
    polynomial parameters for whole families at once."""

    __slots__ = ("mp", "params", "ring", "cols", "_verdict", "_table", "_deformed")

    def __init__(self, mp: MatchedPair, cols, params=()):
        self._set(mp, cols, params, True)

    @classmethod
    def _of(cls, mp: MatchedPair, cols, params=()) -> "DeformationMap":
        """A map on columns that hold values of its ring already: the
        constructor's checks without its coercion."""
        self = cls.__new__(cls)
        self._set(mp, cols, params, False)
        return self

    def _set(self, mp: MatchedPair, cols, params, coerce: bool):
        _require_scalar(mp)
        self.mp = mp
        self.params = tuple(params)
        ring = PolyRing(mp.A.field, self.params) if self.params else mp.A.field
        self.ring = ring
        cols = tuple(map(ring.coerce_vector if coerce else tuple, cols))
        if len(cols) != mp.V.dim or any(len(col) != mp.A.dim for col in cols):
            raise DimensionError(
                f"need {mp.V.dim} columns of length {mp.A.dim}"
            )
        self.cols = cols
        self._verdict = self._table = None  # set by deformation_check
        self._deformed = None  # V_r, set by _deformed_algebra

    @classmethod
    def zero(cls, mp: MatchedPair) -> "DeformationMap":
        return cls.from_images(mp, {})

    @classmethod
    def from_images(cls, mp: MatchedPair, images, params=()) -> "DeformationMap":
        """images: {V label: {A label: coefficient}}; missing labels map to 0."""
        ring = PolyRing(mp.A.field, tuple(params)) if params else mp.A.field
        cols = [(ring.zero,) * mp.A.dim] * mp.V.dim
        for lab, combo in images.items():
            j = _label_index(mp.V.basis, lab)
            cols[j] = _label_coords(ring, mp.A.basis, combo)
        return cls._of(mp, cols, params)

    def apply(self, x_coords):
        R = self.ring
        return _linear(R, self.cols, _vector(R, x_coords, self.mp.V.dim), self.mp.A.dim)

    @property
    def is_zero(self) -> bool:
        R = self.ring
        return all(R.is_zero(c) for col in self.cols for c in col)

    def substitute(self, assignment) -> "DeformationMap":
        """Pin every parameter to a field value."""
        if not self.params:
            raise JalgError("map has no parameters")
        missing = [p for p in self.params if p not in assignment]
        if missing:
            raise JalgError(f"missing values for {missing}")
        f = self.mp.A.field
        vals = {p: f.coerce(assignment[p]) for p in self.params}
        cols = [[c.eval(vals) for c in col] for col in self.cols]
        return DeformationMap._of(self.mp, cols)

    def check(self) -> "DeformationVerdict":
        return deformation_check(self.mp, self)

    def describe(self) -> str:
        parts = []
        for j, lab in enumerate(self.mp.V.basis):
            parts.append(
                f"r({lab}) = "
                + format_combination(self.ring, self.cols[j], self.mp.A.basis)
            )
        return ", ".join(parts)

    def __eq__(self, other):
        if not isinstance(other, DeformationMap):
            return NotImplemented
        return (
            self.mp == other.mp
            and self.params == other.params
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.params, self.cols))

    def __repr__(self):
        return f"DeformationMap({self.describe()})"


@dataclass(frozen=True)
class DeformationVerdict:
    ok: bool
    failures: tuple  # (x label, y label, residual coordinate vector)

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "deformation identity holds"
        lines = []
        for x, y, res in self.failures:
            lines.append(f"fails at ({x}, {y}): residual {res}")
        return "\n".join(lines)


def _require_scalar(mp: MatchedPair) -> None:
    if mp.A.params:
        raise JalgError("the underlying matched pair must be scalar")


def _graph_pass(table, n_a: int, ring, cols):
    """Yield (i, j, residual, v_part) for every basis pair i <= j of V, for
    the map r : V -> A with columns `cols` over `ring`, where `table` is E's
    sparse form (field values) in a basis of A, its first n_a vectors,
    followed by a complement V.  The graph product (r(x), x)(r(y), y) at
    x = e_i, y = e_j has the A and V parts
        a_part = r(x)r(y) + x |> r(y) + y |> r(x),
        v_part = xy + x <| r(y) + y <| r(x),
    and residual = r(v_part) - a_part.  The v_parts are the table of V_r;
    r is a deformation map iff the graph is closed, i.e. iff every residual
    vanishes."""
    n = len(table)
    if isinstance(ring, PolyRing):  # lift the field values as they are
        table = [[[(k, ring._const_of(c)) for k, c in cell] for cell in row] for row in table]
    graph = [list(col) + unit for col, unit in zip(cols, linalg.identity(ring, n - n_a))]
    for i in range(n - n_a):
        for j in range(i, n - n_a):
            prod = _bilinear(ring, table, graph[i], graph[j], n)
            v_part = prod[n_a:]
            yield i, j, _vsub(ring, _linear(ring, cols, v_part, n_a), prod[:n_a]), v_part


def _deformed_algebra(mp: MatchedPair, r: DeformationMap) -> Algebra:
    """V_r, the Algebra on the table deformation_check keeps, built on
    first read and kept on the map in its place."""
    deformation_check(mp, r)
    if r._deformed is None:
        r._deformed = Algebra._of(mp.A.field, mp.V.basis, r._table, params=r.params)
        r._table = None
    return r._deformed


def deformation_check(mp: MatchedPair, r: DeformationMap) -> DeformationVerdict:
    """r(xy) - r(x)r(y) = x |> r(y) + y |> r(x) - r(x <| r(y) + y <| r(x)).

    Bilinear in (x, y), so checking basis pairs is exact.  With parameters
    a PASS holds at every specialization; a FAIL means the identity fails
    as a polynomial identity in the parameters, which over F_p need not
    fail at any specialization (alpha^p - alpha vanishes on all of F_p).

    The verdict is read off one _graph_pass over the pair's product form
    and kept on the map with the V_r table read off the same pass: the
    symmetric x . y = xy + x <| r(y) + y <| r(x) on V's basis, unchecked.
    """
    if r.mp is not mp and r.mp != mp:
        raise JalgError("deformation map belongs to a different matched pair")
    if r._verdict is None:
        R = r.ring
        basis = mp.V.basis
        failures = []
        table = [[None] * mp.V.dim for _ in basis]
        for i, j, res, v_part in _graph_pass(mp.product_sparse(), mp.A.dim, R, r.cols):
            if not all(R.is_zero(c) for c in res):
                failures.append((basis[i], basis[j], tuple(R.format(c) for c in res)))
            table[i][j] = table[j][i] = v_part
        r._verdict, r._table = DeformationVerdict(not failures, tuple(failures)), table
    return r._verdict


def r_deform(mp: MatchedPair, r: DeformationMap) -> Algebra:
    """The deformed algebra V_r with x . y = xy + x <| r(y) + y <| r(x),
    for a matched pair; built and checked once per map."""
    _require_matched(mp)
    verdict = deformation_check(mp, r)
    if not verdict.ok:
        raise VerificationError(
            "map does not satisfy the deformation identity:\n" + verdict.describe()
        )
    deformed = _deformed_algebra(mp, r)
    if not deformed.jordan_check().ok:
        raise VerificationError("deformed table is not Jordan; this should not happen")
    return deformed


@dataclass(frozen=True)
class GraphComplement:
    extension: BicrossedProduct
    deformed: Algebra  # V_r in its own coordinates
    subspace: Subspace  # image of x -> (r(x), x) inside the product
    witness: LinearMap  # V_r -> product, an injective homomorphism


def graph_complement(mp: MatchedPair, r: DeformationMap) -> GraphComplement:
    if r.params:
        raise JalgError("graph construction needs a scalar map; substitute first")
    bp = bicross(mp)
    E = bp.product
    deformed = r_deform(mp, r)
    cols = [list(col) + unit for col, unit in zip(r.cols, linalg.identity(E.field, mp.V.dim))]
    sub = Subspace._of(E, cols)
    Factorization(E, bp.a_embedding, sub)  # raises unless sub is a complementary subalgebra
    witness = LinearMap._of(E.field, mp.V.dim, E.dim, cols)
    if not hom_check(witness, deformed, E):
        raise VerificationError("graph map is not a homomorphism from V_r")
    return GraphComplement(bp, deformed, sub, witness)


def equiv_check(
    mp: MatchedPair, r: DeformationMap, s: DeformationMap, sigma: LinearMap
) -> bool:
    """Whether sigma : V_r -> V_s is an algebra isomorphism, i.e. whether

        sigma(x . y) = sigma(x) . sigma(y),  x . y = xy + x <| r(y) + y <| r(x)

    on the left and the same with s on the right: the one homomorphism
    residual between the two deformed algebras' kept sparse forms, over the
    maps' ring, read with sigma's kept nonzero columns (its field values
    act on a ring of polynomials as its constants).
    """
    V = mp.V
    _same_field(V.field, sigma.field)  # sigma's values are read as they are
    if sigma.source_dim != V.dim or sigma.target_dim != V.dim:
        raise DimensionError("sigma must be an endomorphism of V")
    if not sigma.is_invertible():
        raise JalgError("sigma must be invertible")
    if r.params != s.params:
        raise JalgError("maps must share the same parameter list")
    table_r, table_s = (_deformed_algebra(mp, t).sparse_sc() for t in (r, s))
    return next(_hom_mismatches(r.ring, table_r, table_s, sigma._nonzero_cols()), None) is None


def _deformation_conditions(table, n_a: int, field: Field):
    """Residuals of the deformation identity on E's sparse form `table` in
    a basis of A (its first n_a vectors) followed by a complement, with a
    fully generic map; the nonzero entries are the polynomial conditions
    a map must satisfy."""
    n_v = len(table) - n_a
    params = tuple(f"r{j}_{k}" for j in range(n_v) for k in range(n_a))
    ring = PolyRing(field, params)
    cols = [[ring.var(f"r{j}_{k}") for k in range(n_a)] for j in range(n_v)]
    return params, [c for _, _, res, _ in _graph_pass(table, n_a, ring, cols) for c in res]


def enumerate_deformations(
    mp: MatchedPair, max_candidates: int | None = None
) -> tuple[DeformationMap, ...]:
    """All deformation maps over a finite field, in lexicographic order of
    the flattened coefficient tuple (images of V basis vectors, A coords).

    One `solve_fp` search finds them within its node budget; max_candidates
    refuses a larger map space up front.  Each must pass `deformation_check`.
    An unmatched pair raises VerificationError.
    """
    _require_matched(mp)
    f = mp.A.field
    nA, nV = mp.A.dim, mp.V.dim
    total = f.characteristic ** (nA * nV)
    if max_candidates is not None and total > max_candidates:
        raise BudgetError(
            f"{total} candidate maps exceed the requested cap {max_candidates}"
        )
    _require_scalar(mp)
    params, conditions = _deformation_conditions(mp.product_sparse(), nA, f)
    found = []
    for flat in solve_fp(f, params, conditions):
        r = DeformationMap._of(mp, [flat[j * nA : (j + 1) * nA] for j in range(nV)])
        # the symbolic filter must agree with the direct check
        if not deformation_check(mp, r).ok:
            raise VerificationError(
                "condition filter admitted a non-deformation; this should not happen"
            )
        found.append(r)
    return tuple(found)


@dataclass(frozen=True)
class ComplementReport:
    field: Field
    maps: tuple[DeformationMap, ...]
    deformed: tuple[Algebra, ...]
    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    witnesses: dict
    index: int
    note: str

    def describe(self) -> str:
        lines = [
            f"deformation maps over {self.field}: {len(self.maps)}",
            f"equivalence classes: {self.index}",
        ]
        for c, cls in enumerate(self.classes):
            rep = self.maps[cls[0]]
            table = self.deformed[cls[0]]
            lines.append(
                f"  class {c + 1} ({len(cls)} map{'s' if len(cls) != 1 else ''}): "
                f"{rep.describe()}"
            )
            body = table.format_table().replace("\n", "; ")
            lines.append(f"    complement table: {body}")
        lines.append(f"index = {self.index}")
        lines.append(self.note)
        return "\n".join(lines)


def factorization_index(mp: MatchedPair) -> ComplementReport:
    """Count complements of A in the bicrossed product up to equivalence.

    r ~ s through sigma exactly when sigma : V_r -> V_s is an algebra
    isomorphism.  So each map, in enumeration order, joins the first class
    whose representative iso_search finds V_r isomorphic to, with the
    first isomorphism in row-major lexicographic order as its witness;
    otherwise it opens a class, witnessed by the identity.  Each witness
    is re-checked with equiv_check, and the representatives are confirmed
    pairwise non-isomorphic by searches from the other side.
    """
    f = mp.A.field
    if not f.characteristic:
        raise JalgError("index computation needs a finite field")
    n = mp.V.dim
    if n > GL_SEARCH_MAX_DIM:
        raise BudgetError(
            f"the sigma search over GL(V) is capped at dimension {GL_SEARCH_MAX_DIM}"
        )
    maps = enumerate_deformations(mp)
    deformed = tuple(r_deform(mp, r) for r in maps)
    classes: list[list[int]] = []
    witnesses = {}
    for idx, table in enumerate(deformed):
        for cls in classes:
            verdict = iso_search(table, deformed[cls[0]])
            if verdict.is_isomorphic:
                cls.append(idx)
                witnesses[idx] = verdict.witness
                break
        else:
            classes.append([idx])
            witnesses[idx] = LinearMap.identity(f, n)
    for cls in classes:
        rep = maps[cls[0]]
        for idx in cls:
            if not equiv_check(mp, maps[idx], rep, witnesses[idx]):
                raise VerificationError(
                    "iso_search gave a witness that fails equiv_check"
                )
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            if iso_search(deformed[classes[a][0]], deformed[classes[b][0]]).is_isomorphic:
                raise VerificationError(
                    "distinct classes produced isomorphic complements"
                )
    return ComplementReport(
        field=f,
        maps=maps,
        deformed=deformed,
        classes=tuple(tuple(c) for c in classes),
        representatives=tuple(c[0] for c in classes),
        witnesses=witnesses,
        index=len(classes),
        note=f"count taken over {f}; other fields may give a different index",
    )


def complement_recover(
    E: Algebra, a_sub: Subspace, b_sub: Subspace, bbar_sub: Subspace
) -> DeformationMap:
    """Recover the deformation map whose graph is the complement bbar.

    Splits each basis vector of B along E = A + bbar with one
    `Factorization(E, a_sub, bbar_sub)`, which also decides that bbar is a
    complementary subalgebra, and returns r = -u, where u is the A part;
    `r_deform` checks r against the identity, and the bbar part must be an
    injective homomorphism from V_r into E.
    """
    mp = canonical_pair(Factorization(E, a_sub, b_sub))
    f = E.field
    split = Factorization(E, a_sub, bbar_sub).split
    parts = [split(row) for row in b_sub.rows]
    r = DeformationMap._of(mp, [[f.neg(c) for c in u] for u, _ in parts])
    deformed = r_deform(mp, r)
    images = [_linear(f, bbar_sub.rows, w, E.dim) for _, w in parts]
    v_map = LinearMap._of(f, b_sub.dim, E.dim, images)
    if not hom_check(v_map, deformed, E):
        raise VerificationError("bbar component is not an isomorphism from V_r")
    return r
