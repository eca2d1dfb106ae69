"""Commutative algebras presented by structure constants, and their parts:
elements, linear maps, subspaces, jordanization.  A bimodule over an
algebra is a right action on an abelian factor (matched_pair.dual_action),
and its null split extension is that pair's right semidirect product.

An Algebra's entries live in its scalar ring: the ground field itself, or
a polynomial ring in declared parameters for one-parameter families.  Both
expose the same arithmetic protocol, so all expansion code is shared.
"""

from __future__ import annotations

from itertools import compress

from . import identities, linalg
from .errors import (
    DimensionError,
    FieldMismatchError,
    JalgError,
    VerificationError,
)
from .fields import Field
from .identities import (
    _bilinear,
    _hom_mismatches,
    _linear,
    _nonzero_columns,
    _sparse,
    _vadd,
    _vscale,
    _vsub,
)
from .poly import Poly, PolyRing


def transport_entry(value, src: Field, dst: Field):
    if isinstance(value, Poly):
        ring = PolyRing(dst, value.ring.names)
        out = ring.zero
        for exp, c in value.terms.items():
            out = out + Poly(ring, {exp: src.transport(c, dst)})
        return out
    return src.transport(value, dst)


def format_combination(ring, coords, labels) -> str:
    """Human form of a coordinate vector, e.g. '1/2 u + v'."""
    parts = []
    for c, label in zip(coords, labels):
        if ring.is_zero(c):
            continue
        if ring.eq(c, ring.one):
            parts.append(label)
        else:
            text = ring.format(c)
            if not text.replace("-", "").replace("/", "").isdigit():
                text = f"({text})"
            parts.append(f"{text} {label}")
    return " + ".join(parts) if parts else "0"


def _label_index(basis, label) -> int:
    """The index of a basis label: the one check of every label a caller
    names."""
    try:
        return basis.index(label)
    except ValueError:
        raise JalgError(f"unknown basis label {label!r}") from None


def _label_coords(ring, basis, combo) -> tuple:
    """A combination {label: coefficient} as coordinates over basis, each
    coefficient coerced into ring once; absent labels are 0."""
    vec = [ring.zero] * len(basis)
    for lab, c in combo.items():
        vec[_label_index(basis, lab)] = ring.coerce(c)
    return tuple(vec)


def _vector(ring, coords, dim) -> tuple:
    """A coordinate vector a caller gives: its length checked against dim
    (_sized), its entries coerced into ring."""
    return ring.coerce_vector(_sized(coords, dim))


def _sized(coords, dim) -> tuple:
    """coords as a tuple, its length checked against dim: the one length
    check of a coordinate vector."""
    coords = tuple(coords)
    if len(coords) != dim:
        raise DimensionError(f"expected {dim} coordinates, got {len(coords)}")
    return coords


def _primed(taken, labels) -> list:
    """labels, each primed until it clashes with nothing in taken and
    with no label before it."""
    out = list(taken)
    for lab in labels:
        while lab in out:
            lab += "'"
        out.append(lab)
    return out[len(taken) :]


class Algebra:
    """dim, basis labels, and the symmetric tensor c[i][j][k]: e_i e_j = sum c e_k."""

    def __init__(self, field: Field, basis, sc, params=(), name: str | None = None):
        ring = PolyRing(field, tuple(params)) if params else field
        coerce = ring.coerce_vector
        self._set(field, basis, [list(map(coerce, row)) for row in sc], params, name)

    @classmethod
    def _of(cls, field: Field, basis, sc, params=(), name: str | None = None,
            sparse=None, cube=None) -> "Algebra":
        """An algebra on a table whose entries are ring values already (one
        the library built): the constructor's label, shape and symmetry
        checks without its coercion.  `sparse` is the table's sparse form
        and `cube` its cube-law coefficients (identities._cube_coefficients),
        when the library holds them already (MatchedPair.product_sparse and
        the pair's verify())."""
        self = cls.__new__(cls)
        self._set(field, basis, sc, params, name, sparse, cube)
        return self

    def _set(self, field: Field, basis, sc, params, name, sparse=None, cube=None):
        """Check the labels and the shape, and keep the table in both of
        its forms: dense (`sc`) and sparse (`sparse_sc`), whose cells are
        the nonzero ring values read in the same pass.  A ring value is
        nonzero exactly when it is true (a canonical int mod p, a Fraction,
        a Poly), so symmetry is decided on the sparse cells."""
        self.field = field
        self.params = tuple(params)
        self.ring = PolyRing(field, self.params) if self.params else field
        self.basis = tuple(basis)
        dim = self.dim = len(self.basis)
        self.name = name
        if len(set(self.basis)) != dim:
            raise JalgError(f"duplicate basis labels {self.basis}")
        if len(sc) != dim:
            raise DimensionError(f"tensor has {len(sc)} rows, dim is {dim}")
        dense, cells = [], []
        for i, row in enumerate(sc):
            if len(row) != dim:
                raise DimensionError(f"tensor row {i} has length {len(row)}")
            row = tuple(map(tuple, row))
            for j, cell in enumerate(row):
                if len(cell) != dim:
                    raise DimensionError(f"tensor cell ({i},{j}) has length {len(cell)}")
            dense.append(row)
            if sparse is None:
                cells.append(tuple([tuple(compress(enumerate(cell), cell)) for cell in row]))
        self.sc = tuple(dense)
        self._sparse_sc = tuple(cells) if sparse is None else sparse
        for i, row in enumerate(self._sparse_sc):
            for j in range(i):
                if row[j] != self._sparse_sc[j][i]:
                    raise VerificationError(
                        f"structure constants not symmetric at "
                        f"({self.basis[i]}, {self.basis[j]})"
                    )
        self._jordan: identities.Verdict | None = None
        self._cube = cube  # read by jordan_check
        self._element_index = None  # morphism._element_index

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_products(cls, field: Field, basis, products, params=(), name=None):
        """products: {(label, label): {label: coefficient}}; missing pairs are 0."""
        basis = tuple(basis)
        n = len(basis)
        ring = PolyRing(field, tuple(params)) if params else field
        sc = [[(ring.zero,) * n] * n for _ in range(n)]
        for (x, y), combo in products.items():
            i, j = _label_index(basis, x), _label_index(basis, y)
            sc[i][j] = sc[j][i] = _label_coords(ring, basis, combo)
        return cls._of(field, basis, sc, params=params, name=name)

    @classmethod
    def abelian(cls, field: Field, basis, name=None):
        return cls.from_products(field, basis, {}, name=name)

    # -- elements --------------------------------------------------------------

    def element(self, coords) -> "Element":
        return Element(self, _vector(self.ring, coords, self.dim))

    def basis_element(self, i) -> "Element":
        """Basis vector by index or label."""
        if isinstance(i, str):
            i = _label_index(self.basis, i)
        if not 0 <= i < self.dim:
            raise DimensionError(f"basis index {i} out of range for dim {self.dim}")
        return self.element(linalg.identity(self.ring, self.dim)[i])

    @property
    def zero(self) -> "Element":
        return self.element([self.ring.zero] * self.dim)

    def sparse_sc(self) -> tuple:
        """The table in the sparse form the contractions read
        (identities._sparse), kept from the constructor's pass."""
        return self._sparse_sc

    def mul_coords(self, x, y):
        return _bilinear(self.ring, self.sparse_sc(), x, y, self.dim)

    def mul(self, x: "Element", y: "Element") -> "Element":
        if x.algebra is not self or y.algebra is not self:
            raise JalgError("elements belong to a different algebra")
        return Element(self, tuple(self.mul_coords(x.coords, y.coords)))

    # -- verification ------------------------------------------------------------

    def jordan_check(self) -> identities.Verdict:
        if self._jordan is None:
            self._jordan = identities.jordan_verdict(
                self.field, self.sparse_sc(), self.params, cube=self._cube
            )
        return self._jordan

    @property
    def is_jordan(self) -> bool:
        return self.jordan_check().ok

    @property
    def is_abelian(self) -> bool:
        return all(
            self.ring.is_zero(c) for row in self.sc for cell in row for c in cell
        )

    # -- conversions ---------------------------------------------------------------

    def table_key(self):
        return (self.field.characteristic, self.params, self.sc)

    def to_field(self, target: Field) -> "Algebra":
        if target is self.field:
            return self
        sc = [
            [[transport_entry(c, self.field, target) for c in cell] for cell in row]
            for row in self.sc
        ]
        return Algebra(target, self.basis, sc, params=self.params, name=self.name)

    def substitute_params(self, assignment: dict) -> "Algebra":
        if not self.params:
            return self
        sc = [
            [[c.eval(assignment) for c in cell] for cell in row] for row in self.sc
        ]
        return Algebra(self.field, self.basis, sc, name=self.name)

    def relabel(self, basis) -> "Algebra":
        return Algebra._of(
            self.field, basis, self.sc, params=self.params, name=self.name, sparse=self._sparse_sc
        )

    def __eq__(self, other):
        # labels are cosmetic: equality is equality of tables over one field
        if not isinstance(other, Algebra):
            return NotImplemented
        return (
            self.field is other.field
            and self.params == other.params
            and self.sc == other.sc
        )

    def __hash__(self):
        return hash(self.table_key())

    def __repr__(self):
        label = self.name or "Algebra"
        return f"{label}(dim={self.dim}, field={self.field})"

    def products(self):
        """(i, j, text) for each nonzero product e_i e_j, i <= j, in order,
        with text its format_combination: the cells are read off
        sparse_sc(), so a zero cell costs one truth test."""
        for i, row in enumerate(self._sparse_sc):
            for j in range(i, self.dim):
                if row[j]:
                    yield i, j, format_combination(self.ring, self.sc[i][j], self.basis)

    def format_table(self) -> str:
        b = self.basis
        lines = [f"{b[i]} {b[j]} = {text}" for i, j, text in self.products()]
        return "\n".join(lines) if lines else "(abelian: all products zero)"


class Element:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: tuple):
        self.algebra = algebra
        self.coords = coords

    def __add__(self, other: "Element") -> "Element":
        ring = self.algebra.ring
        return Element(self.algebra, tuple(_vadd(ring, self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        ring = self.algebra.ring
        return Element(self.algebra, tuple(_vsub(ring, self.coords, other.coords)))

    def __mul__(self, other: "Element") -> "Element":
        return self.algebra.mul(self, other)

    def scale(self, c) -> "Element":
        ring = self.algebra.ring
        return Element(self.algebra, tuple(_vscale(ring, ring.coerce(c), self.coords)))

    @property
    def is_zero(self) -> bool:
        return all(self.algebra.ring.is_zero(c) for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def __repr__(self):
        return format_combination(self.algebra.ring, self.coords, self.algebra.basis)


class LinearMap:
    """cols[j] = coordinates of the image of source basis vector j."""

    def __init__(self, field: Field, source_dim: int, target_dim: int, cols):
        coerce = field.coerce
        self._set(field, source_dim, target_dim, [tuple(map(coerce, col)) for col in cols])

    @classmethod
    def _of(cls, field: Field, source_dim: int, target_dim: int, cols) -> "LinearMap":
        """A map on columns that already hold field values: the constructor's
        shape checks without its coercion."""
        self = cls.__new__(cls)
        self._set(field, source_dim, target_dim, cols)
        return self

    def _set(self, field: Field, source_dim: int, target_dim: int, cols):
        self.field = field
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.cols = tuple(map(tuple, cols))
        if len(self.cols) != source_dim or any(len(c) != target_dim for c in self.cols):
            raise DimensionError(
                f"expected {source_dim} columns of length {target_dim}"
            )
        self._nonzero: list | None = None  # _nonzero_cols, built on first use

    @classmethod
    def identity(cls, field: Field, dim: int) -> "LinearMap":
        return cls._of(field, dim, dim, linalg.identity(field, dim))

    @classmethod
    def zero(cls, field: Field, source_dim: int, target_dim: int) -> "LinearMap":
        return cls._of(
            field, source_dim, target_dim, [[field.zero] * target_dim] * source_dim
        )

    @classmethod
    def from_images(cls, source: Algebra, target: Algebra, images: dict) -> "LinearMap":
        """images: {source label: {target label: coeff}}; missing labels map to 0."""
        _same_field(source.field, target.field)
        cols = [(target.field.zero,) * target.dim] * source.dim
        for lab, combo in images.items():
            j = _label_index(source.basis, lab)
            cols[j] = _label_coords(target.field, target.basis, combo)
        return cls._of(source.field, source.dim, target.dim, cols)

    def _nonzero_cols(self) -> list:
        """The columns' nonzero entries (identities._nonzero_columns), the
        form the homomorphism residual reads; built once per map, so
        hom_check and quadruple_check on one map share them."""
        if self._nonzero is None:
            self._nonzero = _nonzero_columns(self.cols)
        return self._nonzero

    def apply(self, coords):
        coords = _vector(self.field, coords, self.source_dim)
        return _linear(self.field, self.cols, coords, self.target_dim)

    def compose(self, inner: "LinearMap") -> "LinearMap":
        """self after inner."""
        _same_field(self.field, inner.field)
        if inner.target_dim != self.source_dim:
            raise DimensionError("composition dimension mismatch")
        cols = [_linear(self.field, self.cols, col, self.target_dim) for col in inner.cols]
        return LinearMap._of(self.field, inner.source_dim, self.target_dim, cols)

    def add(self, other: "LinearMap") -> "LinearMap":
        _same_field(self.field, other.field)
        if (other.source_dim, other.target_dim) != (self.source_dim, self.target_dim):
            raise DimensionError("sum dimension mismatch")
        cols = [_vadd(self.field, c1, c2) for c1, c2 in zip(self.cols, other.cols)]
        return LinearMap._of(self.field, self.source_dim, self.target_dim, cols)

    def neg(self) -> "LinearMap":
        cols = [[self.field.neg(a) for a in col] for col in self.cols]
        return LinearMap._of(self.field, self.source_dim, self.target_dim, cols)

    def rows(self) -> list[list]:
        return [
            [self.cols[j][k] for j in range(self.source_dim)]
            for k in range(self.target_dim)
        ]

    def is_invertible(self) -> bool:
        return self.source_dim == self.target_dim and linalg.is_invertible(
            self.field, self.rows()
        )

    def inverse(self) -> "LinearMap":
        inv_rows = linalg.invert(self.field, self.rows())
        if inv_rows is None:
            raise JalgError("map is singular")
        cols = [
            [inv_rows[k][j] for k in range(self.source_dim)]
            for j in range(self.target_dim)
        ]
        return LinearMap._of(self.field, self.target_dim, self.source_dim, cols)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.field is other.field
            and self.cols == other.cols
            and self.target_dim == other.target_dim
        )

    def __hash__(self):
        return hash((self.field.characteristic, self.target_dim, self.cols))

    def __repr__(self):
        return f"LinearMap({self.source_dim}->{self.target_dim}, cols={self.cols})"


def _same_field(field: Field, *others) -> None:
    """Refuse objects over different ground fields.  Fields are interned, so
    identity decides."""
    for other in others:
        if other is not field:
            raise FieldMismatchError(f"{field} vs {other}")


def hom_check(f: LinearMap, A: Algebra, B: Algebra) -> bool:
    """f(e_i e_j) = f(e_i) f(e_j) on all basis pairs; exact by bilinearity."""
    _same_field(A.field, B.field, f.field)
    if A.params or B.params:
        raise JalgError("hom_check handles scalar algebras only")
    if f.source_dim != A.dim or f.target_dim != B.dim:
        raise DimensionError("map shape does not match the algebras")
    cols = f._nonzero_cols()
    return next(_hom_mismatches(A.field, A.sparse_sc(), B.sparse_sc(), cols), None) is None


def _hom_ok(A: Algebra, B: Algebra, images) -> bool:
    """hom_check on raw images (images[i] = B-coordinates of the image of
    e_i), without building a LinearMap; search loops call this directly."""
    cols = _nonzero_columns(images)
    return next(_hom_mismatches(A.field, A.sparse_sc(), B.sparse_sc(), cols), None) is None


class Subspace:
    """Subspace of a scalar algebra's underlying space, canonicalized by RREF.

    It is bound to one ambient algebra and never changes, so whether it is
    closed under the product is decided once (_closure) and kept."""

    def __init__(self, ambient: Algebra, vectors):
        if ambient.params:
            raise JalgError("subspaces require scalar structure constants")
        self._set(ambient, [ambient.field.coerce_vector(v) for v in vectors])

    @classmethod
    def _of(cls, ambient: Algebra, rows) -> "Subspace":
        """A subspace of a scalar algebra spanned by rows that already hold
        field values: the constructor's length check (_sized) without its
        coercion."""
        self = cls.__new__(cls)
        self._set(ambient, rows)
        return self

    def _set(self, ambient: Algebra, rows):
        self.ambient = ambient
        rows = [_sized(r, ambient.dim) for r in rows]
        reduced, pivots = linalg.rref(ambient.field, rows)
        self.rows = tuple(tuple(r) for r in reduced)
        self._pivots = tuple(pivots)
        self._free = tuple(sorted(set(range(ambient.dim)) - set(pivots)))
        # each row's nonzero entries off the pivot columns: (column, entry)
        self._off = tuple(tuple((c, r[c]) for c in self._free if r[c]) for r in reduced)
        self._closed: tuple | None = None  # _closure's answer, on first use

    @classmethod
    def span_of_labels(cls, ambient: Algebra, labels) -> "Subspace":
        units = linalg.identity(ambient.field, ambient.dim)
        return cls(ambient, [units[_label_index(ambient.basis, lab)] for lab in labels])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, coords) -> bool:
        return self.coordinates(coords) is not None

    def coordinates(self, coords):
        """Coefficients of coords on the rows, or None if outside the span."""
        return self._coordinates(_vector(self.ambient.field, coords, self.ambient.dim))

    def _coordinates(self, coords):
        """coordinates() of a vector of ambient.dim field values.

        Row k of the RREF is 1 at its pivot and 0 at the other pivots, so
        the k-th coefficient is the pivot entry of coords, and the
        combination matches coords at every pivot.  coords lies in the span
        iff it also matches at the other columns: there only the rows'
        off-pivot entries are subtracted, in _linear's arithmetic."""
        coeffs = [coords[p] for p in self._pivots]
        rest = list(coords)
        for a, off in zip(coeffs, self._off):
            if a:
                for c, v in off:
                    rest[c] -= a * v
        p = self.ambient.field.characteristic
        if any(rest[c] % p if p else rest[c] for c in self._free):
            return None
        return coeffs

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace._of(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        # solve u . self_rows = w . other_rows by a nullspace computation
        field = self.ambient.field
        n = self.ambient.dim
        stacked = []
        for k in range(n):
            row = [self.rows[i][k] for i in range(self.dim)]
            row += [field.neg(other.rows[j][k]) for j in range(other.dim)]
            stacked.append(row)
        vectors = [
            _linear(field, self.rows, sol[: self.dim], n)
            for sol in linalg.nullspace(field, stacked)
        ]
        return Subspace._of(self.ambient, vectors)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient is not other.ambient:
            raise JalgError("subspaces live in different ambient algebras")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient is other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((id(self.ambient), self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient!r})"


def complement_check(E: Algebra, U: Subspace, W: Subspace) -> bool:
    """Whether E = U + W directly.  With dim U + dim W = dim E, U + W is all
    of E exactly when U and W meet only in 0, so one rank decides it."""
    if U.ambient is not E or W.ambient is not E:
        raise JalgError("subspaces do not live in the given algebra")
    return U.dim + W.dim == E.dim and linalg.rank(E.field, U.rows + W.rows) == E.dim


def subalgebra_check(E: Algebra, U: Subspace) -> bool:
    return subalgebra_witness(E, U) is None


def subalgebra_witness(E: Algebra, U: Subspace):
    """None if closed, else (i, j, product coordinates) for an escaping
    product, the coordinates as a new list."""
    escape = _closure(E, U)[1]
    if escape is None:
        return None
    i, j, prod = escape
    return i, j, list(prod)


def _closure(E: Algebra, U: Subspace):
    """Whether U is closed, decided by one pass over the products of its
    rows, i <= j, and kept on U: (table, None), where table[i][j] =
    table[j][i] holds the coordinates of row_i row_j on the rows, or
    (None, (i, j, product)) at the first product that leaves U.  The
    answer is tuples all through, so no caller can change it."""
    if U.ambient is not E:
        raise JalgError("subspace does not live in the given algebra")
    if U._closed is None:
        U._closed = _closure_pass(E, U)
    return U._closed


def _closure_pass(E: Algebra, U: Subspace):
    """_closure's answer, computed."""
    n = U.dim
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = E.mul_coords(U.rows[i], U.rows[j])
            coords = U._coordinates(prod)
            if coords is None:
                return None, (i, j, tuple(prod))
            table[i][j] = table[j][i] = tuple(coords)
    return tuple(map(tuple, table)), None


def _induced_labels(E: Algebra, U: Subspace) -> list:
    """A row that is a basis vector of E keeps its label; row k is sk
    otherwise."""
    labels = []
    for idx, row in enumerate(U.rows):
        ones = [k for k, c in enumerate(row) if not E.ring.is_zero(c)]
        if len(ones) == 1 and E.ring.eq(row[ones[0]], E.ring.one):
            labels.append(E.basis[ones[0]])
        else:
            labels.append(f"s{idx}")
    return labels


def induced_subalgebra(E: Algebra, U: Subspace):
    """The algebra on U's canonical basis plus its inclusion map into E; the
    pass that reads the products' coordinates on U also decides closure."""
    table, escape = _closure(E, U)
    if escape is not None:
        raise VerificationError("subspace is not closed under multiplication")
    sub = Algebra._of(E.field, _induced_labels(E, U), table)
    incl = LinearMap._of(E.field, U.dim, E.dim, U.rows)
    return sub, incl


def jordanize(field: Field, basis, assoc, params=(), name=None) -> Algebra:
    """Symmetrize an associative multiplication: x . y = (xy + yx) / 2.

    Associativity of the input is checked on basis triples (exact by
    trilinearity); the result is verified Jordan even though that is
    guaranteed.
    """
    n = len(basis)
    ring = PolyRing(field, tuple(params)) if params else field
    m = [[[ring.coerce(c) for c in cell] for cell in row] for row in assoc]

    units = linalg.identity(ring, n)
    table = _sparse(m, ring)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                # (e_i e_j) e_k against e_i (e_j e_k)
                lhs = _bilinear(ring, table, m[i][j], units[k], n)
                rhs = _bilinear(ring, table, units[i], m[j][k], n)
                if lhs != rhs:
                    raise VerificationError(
                        f"input multiplication is not associative at basis triple "
                        f"({basis[i]}, {basis[j]}, {basis[k]})"
                    )
    half = field.inv(field.coerce(2))
    sc = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = [
                ring.mul(ring.coerce(half), ring.add(m[i][j][k], m[j][i][k]))
                for k in range(n)
            ]
            row.append(cell)
        sc.append(row)
    out = Algebra(field, basis, sc, params=params, name=name)
    verdict = out.jordan_check()
    if not verdict.ok:
        raise VerificationError("jordanization failed its own check:\n" + verdict.describe())
    return out
