"""Complement deformation machinery.

A linear map r : V -> A satisfying the deformation identity bends the
multiplication of V into a new Jordan algebra V_r whose graph inside the
bicrossed product is again a complement of A.  Enumerating the maps and
grouping them by equivalence computes the factorization index.

Each map keeps its verdict, the table of V_r read off the same graph
products (r(x), x)(r(y), y), and V_r, so one pass per map serves the
enumeration, `r_deform` and `equiv_check`; `Factorization` decides the
graph and bbar splits.
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
    _vector,
    format_combination,
    hom_check,
)
from .errors import BudgetError, DimensionError, JalgError, VerificationError
from .fields import Field
from .identities import _bilinear, _hom_mismatches, _linear, _nonzero_columns, _sparse, _vsub
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

    __slots__ = ("mp", "params", "ring", "cols", "_checked", "_deformed")

    def __init__(self, mp: MatchedPair, cols, params=()):
        if mp.A.params:
            raise JalgError("the underlying matched pair must be scalar")
        self.mp = mp
        self.params = tuple(params)
        ring = PolyRing(mp.A.field, self.params) if self.params else mp.A.field
        self.ring = ring
        cols = tuple(map(ring.coerce_vector, cols))
        if len(cols) != mp.V.dim or any(len(col) != mp.A.dim for col in cols):
            raise DimensionError(
                f"need {mp.V.dim} columns of length {mp.A.dim}"
            )
        self.cols = cols
        self._checked = self._deformed = None  # set by _checked_table, r_deform

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
        return cls(mp, cols, params)

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
        return DeformationMap(self.mp, cols)

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


def _graph(R, r: DeformationMap):
    """The graph columns (r(e_j), e_j) in the coordinates of A x V, over R."""
    units = linalg.identity(R, r.mp.V.dim)
    return [list(col) + unit for col, unit in zip(r.cols, units)]


def _graph_products(mp: MatchedPair, r: DeformationMap):
    """Yield (i, j, a_part, v_part) for every basis pair i <= j of V: the
    A and V components of (r(x), x)(r(y), y) at x = e_i, y = e_j, read off
    the pair's product table,
        a_part = r(x)r(y) + x |> r(y) + y |> r(x),
        v_part = xy + x <| r(y) + y <| r(x).
    The v_parts are the table of V_r; r is a deformation map iff the graph
    is closed, i.e. iff r(v_part) = a_part everywhere."""
    R = r.ring
    nA, nV = mp.A.dim, mp.V.dim
    sc = mp.product_sparse()
    if isinstance(R, PolyRing):  # lift the field values as they are
        sc = [[[(k, R._const_of(c)) for k, c in cell] for cell in row] for row in sc]
    graph = _graph(R, r)
    for i in range(nV):
        for j in range(i, nV):
            prod = _bilinear(R, sc, graph[i], graph[j], nA + nV)
            yield i, j, prod[:nA], prod[nA:]


def _residuals(r: DeformationMap, products):
    """Yield (i, j, residual) for each of _graph_products, where the
    residual is the A-vector
        r(xy) - r(x)r(y) - x |> r(y) - y |> r(x) + r(x <| r(y) + y <| r(x))
    at x = e_i, y = e_j.  The deformation identity holds iff all vanish."""
    R = r.ring
    for i, j, a_part, v_part in products:
        yield i, j, _vsub(R, _linear(R, r.cols, v_part, r.mp.A.dim), a_part)


def _deformed_table(nV: int, products):
    """The symmetric table of V_r, x . y = xy + x <| r(y) + y <| r(x), from
    _graph_products."""
    table = [[None] * nV for _ in range(nV)]
    for i, j, _, v_part in products:
        table[i][j] = table[j][i] = tuple(v_part)
    return table


def _checked_table(mp: MatchedPair, r: DeformationMap):
    """(verdict of deformation_check, table of V_r), read off one
    _graph_products pass and kept on the map."""
    if r.mp is not mp and r.mp != mp:
        raise JalgError("deformation map belongs to a different matched pair")
    if r._checked is None:
        R = r.ring
        basis = mp.V.basis
        products = list(_graph_products(mp, r))
        failures = tuple(
            (basis[i], basis[j], tuple(R.format(c) for c in res))
            for i, j, res in _residuals(r, products)
            if not all(R.is_zero(c) for c in res)
        )
        r._checked = DeformationVerdict(not failures, failures), _deformed_table(mp.V.dim, products)
    return r._checked


def deformation_check(mp: MatchedPair, r: DeformationMap) -> DeformationVerdict:
    """r(xy) - r(x)r(y) = x |> r(y) + y |> r(x) - r(x <| r(y) + y <| r(x)).

    Bilinear in (x, y), so checking basis pairs is exact.  With parameters
    a PASS holds at every specialization; a FAIL means the identity fails
    as a polynomial identity in the parameters, which over F_p need not
    fail at any specialization (alpha^p - alpha vanishes on all of F_p).
    """
    return _checked_table(mp, r)[0]


def r_deform(mp: MatchedPair, r: DeformationMap) -> Algebra:
    """The deformed algebra V_r with x . y = xy + x <| r(y) + y <| r(x),
    for a matched pair; built and checked once per map."""
    _require_matched(mp)
    verdict, table = _checked_table(mp, r)
    if not verdict.ok:
        raise VerificationError(
            "map does not satisfy the deformation identity:\n" + verdict.describe()
        )
    if r._deformed is None:
        out = Algebra._of(mp.A.field, mp.V.basis, table, params=r.params)
        if not out.jordan_check().ok:
            raise VerificationError("deformed table is not Jordan; this should not happen")
        r._deformed = out
    return r._deformed


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
    cols = _graph(E.field, r)
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
    residual between the two deformed tables, over the maps' ring.
    """
    V = mp.V
    if sigma.source_dim != V.dim or sigma.target_dim != V.dim:
        raise DimensionError("sigma must be an endomorphism of V")
    if not sigma.is_invertible():
        raise JalgError("sigma must be invertible")
    if r.params != s.params:
        raise JalgError("maps must share the same parameter list")
    R = r.ring
    cols = _nonzero_columns([R.coerce(c) for c in col] for col in sigma.cols)
    table_r, table_s = (_sparse(_checked_table(mp, t)[1], R) for t in (r, s))
    return next(_hom_mismatches(R, table_r, table_s, cols), None) is None


def _deformation_conditions(mp: MatchedPair):
    """Residuals of the deformation identity with a fully generic map;
    the nonzero entries are the polynomial conditions a map must satisfy."""
    nA, nV = mp.A.dim, mp.V.dim
    params = tuple(f"r{j}_{k}" for j in range(nV) for k in range(nA))
    ring = PolyRing(mp.A.field, params)
    cols = [
        [ring.var(f"r{j}_{k}") for k in range(nA)] for j in range(nV)
    ]
    generic = DeformationMap(mp, cols, params)
    return params, [c for _, _, res in _residuals(generic, _graph_products(mp, generic)) for c in res]


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
    params, conditions = _deformation_conditions(mp)
    found = []
    for flat in solve_fp(f, params, conditions):
        r = DeformationMap(mp, [flat[j * nA : (j + 1) * nA] for j in range(nV)])
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
    r = DeformationMap(mp, [[f.neg(c) for c in u] for u, _ in parts])
    deformed = r_deform(mp, r)
    images = [_linear(f, bbar_sub.rows, w, E.dim) for _, w in parts]
    v_map = LinearMap._of(f, b_sub.dim, E.dim, images)
    if linalg.rank(f, images) != b_sub.dim or not hom_check(v_map, deformed, E):
        raise VerificationError("bbar component is not an isomorphism from V_r")
    return r
