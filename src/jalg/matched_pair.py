"""Matched pairs of Jordan algebras and everything built from them:
bicrossed products, semidirect products (a Jordan bimodule's null split
extension among them), the dual module, canonical pairs extracted from a
factorization, split monomorphisms, and the abelian-pair classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import compress

from . import identities, linalg
from .algebra import (
    Algebra,
    LinearMap,
    Subspace,
    _closure,
    _induced_labels,
    _label_coords,
    _label_index,
    _primed,
    _same_field,
    _vector,
    hom_check,
)
from .errors import DimensionError, JalgError, VerificationError
from .fields import Field
from .identities import Verdict, _bilinear, _linear
from .poly import PolyRing, solve_fp


class _Action:
    """tensor[x][a] = coordinates of the action of e_x (in V) with e_a (in A).

    The body shared by RightAction and LeftAction; each subclass declares
    its side, and the side fixes which algebra acts and which factor holds
    the values.  The tensor is kept in both of its forms, as Algebra keeps
    its table: dense (`tensor`) and sparse (`sparse_tensor`, x-major, the
    form identities._sparse gives), read in the constructor's one pass.
    """

    _side = ""

    @classmethod
    def _roles(cls, V: Algebra, A: Algebra):
        """(the acting algebra, the factor holding the values)."""
        return (A, V) if cls._side == "right" else (V, A)

    def __init__(self, V: Algebra, A: Algebra, tensor):
        self._set(V, A, tensor, A.ring.coerce_vector)

    @classmethod
    def _of(cls, V: Algebra, A: Algebra, tensor):
        """An action on a tensor that already holds ring values: the
        constructor's checks without its coercion."""
        self = cls.__new__(cls)
        self._set(V, A, tensor, tuple)
        return self

    def _set(self, V: Algebra, A: Algebra, tensor, cell_values):
        _same_field(V.field, A.field)
        if V.params != A.params:
            raise JalgError("factors must share their parameter set")
        self.V = V
        self.A = A
        self._acting, self._values = self._roles(V, A)
        out_dim = self._values.dim
        if len(tensor) != V.dim:
            raise DimensionError("action tensor must have one row per V basis vector")
        rows, sparse = [], []
        for row in tensor:
            if len(row) != A.dim:
                raise DimensionError("action row length must equal dim A")
            cells = []
            for cell in row:
                if len(cell) != out_dim:
                    raise DimensionError("action value has the wrong dimension")
                cells.append(cell_values(cell))
            rows.append(tuple(cells))
            # a ring value is nonzero exactly when it is true
            sparse.append(tuple([tuple(compress(enumerate(cell), cell)) for cell in cells]))
        self.tensor = tuple(rows)
        self.sparse_tensor = tuple(sparse)

    @classmethod
    def zero(cls, V: Algebra, A: Algebra):
        return cls.from_images(V, A, {})

    @classmethod
    def from_images(cls, V: Algebra, A: Algebra, images: dict):
        """images: {(x label, a label): {label of the value factor: coeff}}."""
        out = cls._roles(V, A)[1]
        ring = A.ring
        tensor = [[(ring.zero,) * out.dim] * A.dim for _ in range(V.dim)]
        for (x, a), combo in images.items():
            i, j = _label_index(V.basis, x), _label_index(A.basis, a)
            tensor[i][j] = _label_coords(ring, out.basis, combo)
        return cls._of(V, A, tensor)

    def check(self) -> Verdict:
        acting = self._acting
        if self._side == "right":
            # A acts on the space of V: transpose to acting-first indexing
            act = [tuple(row[a] for row in self.sparse_tensor) for a in range(self.A.dim)]
            prefixes = ("a", "x")
        else:
            act, prefixes = self.sparse_tensor, ("x", "a")
        return identities.action_law_verdict(
            acting.field,
            acting.sparse_sc(),
            act,
            acting.params,
            acting_prefix=prefixes[0],
            module_prefix=prefixes[1],
            axiom=f"{self._side}-action",
        )

    def apply(self, x_coords, a_coords):
        ring = self.A.ring
        x = _vector(ring, x_coords, self.V.dim)
        a = _vector(ring, a_coords, self.A.dim)
        return _bilinear(ring, self.sparse_tensor, x, a, self._values.dim)

    def is_zero(self) -> bool:
        return not any(map(any, self.sparse_tensor))

    def __eq__(self, other):
        # a right and a left action with equal tensors are different actions
        return (
            type(other) is type(self)
            and self.V == other.V
            and self.A == other.A
            and self.tensor == other.tensor
        )

    def __hash__(self):
        return hash(self.tensor)


class RightAction(_Action):
    """tensor[x][a] = coordinates in V of e_x <| e_a (A acts on V)."""

    _side = "right"


class LeftAction(_Action):
    """tensor[x][a] = coordinates in A of e_x |> e_a (V acts on A)."""

    _side = "left"


class MatchedPair:
    """(A, V, <|, |>) with a cached verification state, product table, its
    cube-law coefficients and bicrossed product."""

    def __init__(self, A: Algebra, V: Algebra, right: RightAction, left: LeftAction,
                 name: str | None = None):
        if right.V is not V or right.A is not A or left.V is not V or left.A is not A:
            raise JalgError("actions do not connect the given algebras")
        self.A = A
        self.V = V
        self.right = right
        self.left = left
        self.name = name
        self._verdict: Verdict | None = None
        self._product_sparse: tuple | None = None
        self._cube: tuple | None = None  # set by verify
        self._bicross: BicrossedProduct | None = None  # set by bicross

    @classmethod
    def with_zero_actions(cls, A: Algebra, V: Algebra) -> "MatchedPair":
        return cls(A, V, RightAction.zero(V, A), LeftAction.zero(V, A))

    def to_field(self, target) -> "MatchedPair":
        """Transport a scalar pair along Q -> F_p reduction."""
        if self.A.params:
            raise JalgError("cannot transport a parametric pair")
        if target is self.A.field:
            return self
        A2 = self.A.to_field(target)
        V2 = self.V.to_field(target)
        # the action constructors coerce each Q entry into the target field
        return MatchedPair(
            A2,
            V2,
            RightAction(V2, A2, self.right.tensor),
            LeftAction(V2, A2, self.left.tensor),
            name=self.name,
        )

    def verify(self, stop_early: bool = False) -> Verdict:
        """Everything: both factors Jordan, both action laws, MP1-MP6
        (identities.PAIR_AXIOMS), read off one cube-law pass on
        product_sparse().  With stop_early only the first failing axiom
        coordinate is reported.

        The first call keeps that pass's coefficients
        (identities._cube_coefficients), PASS or FAIL, with or without
        stop_early: every later verdict on the pair reads them, and so
        does the Jordan check of bicross_table's product."""
        if self._verdict is not None and not stop_early:
            return self._verdict
        table, field, params = self.product_sparse(), self.A.field, self.A.params
        if self._cube is None:
            self._cube = identities._cube_coefficients(field, table, table, params)
        verdict = identities.matched_pair_verdict(field, table, self.A.dim, self._cube, params, stop_early)
        if verdict.ok or not stop_early:
            self._verdict = verdict
        return verdict

    def product_sparse(self) -> tuple:
        """The candidate product on A x V in the sparse form the
        contractions read (identities._sparse), joined once per pair from
        the factors' and the actions' kept forms (identities._pair_sparse)."""
        if self._product_sparse is None:
            right, left = self.right.sparse_tensor, self.left.sparse_tensor
            self._product_sparse = identities._pair_sparse(self.A.sparse_sc(), self.V.sparse_sc(), right, left)
        return self._product_sparse

    @property
    def is_matched(self) -> bool:
        return self.verify().ok

    def __eq__(self, other):
        return (
            isinstance(other, MatchedPair)
            and self.A == other.A
            and self.V == other.V
            and self.right.tensor == other.right.tensor
            and self.left.tensor == other.left.tensor
        )

    def __hash__(self):
        return hash((self.A, self.V, self.right.tensor, self.left.tensor))

    def __repr__(self):
        label = self.name or "MatchedPair"
        return f"{label}(dim A={self.A.dim}, dim V={self.V.dim})"


def bicross_table(mp: MatchedPair) -> Algebra:
    """The candidate product algebra on A x V, built without verification
    from `mp.product_sparse()`, which it keeps as its sparse form and
    densifies once (identities._dense).  Used both by the verified
    constructor and by equivalence scans that need the table for pairs that
    may fail the axioms.

    Once mp.verify() has run, the product is handed that pass's cube-law
    coefficients, PASS or FAIL: they are its own table's, so its
    jordan_check() reads them instead of a second pass.
    """
    A, V = mp.A, mp.V
    name = f"{A.name}|x|{V.name}" if A.name and V.name else None
    labels = list(A.basis) + _primed(A.basis, V.basis)
    sparse = mp.product_sparse()
    sc = identities._dense(sparse, len(labels), A.ring.zero)
    return Algebra._of(A.field, labels, sc, params=A.params, name=name, sparse=sparse, cube=mp._cube)


@dataclass
class BicrossedProduct:
    product: Algebra
    pair: MatchedPair
    a_embedding: Subspace
    v_embedding: Subspace


def _require_matched(mp: MatchedPair) -> None:
    """Raise VerificationError unless mp is a matched pair.  verify() is
    cached, so a matched pair pays for one cube-law pass however often
    this is asked."""
    verdict = mp.verify()
    if not verdict.ok:
        raise VerificationError("not a matched pair:\n" + verdict.describe())


def bicross(mp: MatchedPair) -> BicrossedProduct:
    """The verified bicrossed product of a matched pair, built and checked
    once per pair: a later call returns the same object.  An unmatched pair
    raises on every call.  The product's Jordan verdict is read off the
    coefficients of verify()'s pass on this very table, which has none."""
    if mp._bicross is not None:
        return mp._bicross
    _require_matched(mp)
    product = bicross_table(mp)
    product._jordan = identities.jordan_verdict(
        product.field, product.sparse_sc(), product.params, cube=product._cube
    )
    a_emb = v_emb = None
    if not mp.A.params:
        # the unit vectors of A and of V split the product by construction
        units = linalg.identity(product.field, product.dim)
        a_emb = Subspace._of(product, units[: mp.A.dim])
        v_emb = Subspace._of(product, units[mp.A.dim :])
    mp._bicross = BicrossedProduct(product, mp, a_emb, v_emb)
    return mp._bicross


def _semidirect(mp: MatchedPair, names) -> Algebra:
    """The verified product of a pair whose other action is zero, once
    verify() passes: bicross's, which carries its Jordan verdict.
    Its first failing group is reported: a factor's Jordan identity, the
    law of the nonzero action, or the three MP axioms that survive (the
    keys of `names`, reported under its values: L1-L3 or R1-R3).  With one
    action zero the other action law and the other three MP pieces of the
    product's cube law vanish identically."""
    verdict = mp.verify()
    if verdict.ok:
        return bicross(mp).product
    first = verdict.failed_axioms()[0]
    if first in ("jordan-A", "jordan-V"):
        alg = mp.A if first == "jordan-A" else mp.V
        raise VerificationError(f"{alg!r} fails the Jordan identity")
    if first in names:
        report = identities._rename(Verdict(False, verdict.failures, tuple(names)), names)
        raise VerificationError("semidirect axioms fail:\n" + report.describe())
    law = Verdict(False, tuple(f for f in verdict.failures if f.axiom == first), (first,))
    side = first.removesuffix("-action")
    raise VerificationError(f"{side} action law fails:\n" + law.describe())


def semidirect_left(A: Algebra, V: Algebra, la: LeftAction) -> Algebra:
    """A |x V: multiplication (ab + x|>b + y|>a, xy); needs L1-L3."""
    return _semidirect(MatchedPair(A, V, RightAction.zero(V, A), la), identities._LEFT_FROM_MP)


def semidirect_right(A: Algebra, V: Algebra, ra: RightAction) -> Algebra:
    """A x| V: multiplication (ab, x<|b + y<|a + xy); needs R1-R3."""
    return _semidirect(MatchedPair(A, V, ra, LeftAction.zero(V, A)), identities._RIGHT_FROM_MP)


def dual_action(A: Algebra) -> RightAction:
    """A's dual module as a right action on the abelian V = <a*>:
    (phi <| a)(b) = phi(ab), so e_j* <| e_i = sum over k of (e_i e_k)_j e_k*.

    A Jordan bimodule is the pair (A, V, <|, 0): its two laws are the
    pair's right-action and MP3 pieces, and its null split extension is
    semidirect_right(A, V, <|).  A must be Jordan; the pair is still
    verified once, and a failure raises."""
    if not A.is_jordan:
        raise VerificationError("dual action requires a Jordan algebra")
    n, z = A.dim, A.ring.zero
    V = Algebra._of(A.field, [f"{lab}*" for lab in A.basis], [[[z] * n] * n] * n, params=A.params)
    ra = RightAction._of(V, A, [[[A.sc[i][k][j] for k in range(n)] for i in range(n)] for j in range(n)])
    verdict = MatchedPair(A, V, ra, LeftAction.zero(V, A)).verify()
    if not verdict.ok:
        raise VerificationError("dual action violates the bimodule laws:\n" + verdict.describe())
    return ra


class Factorization:
    """E together with complementary subalgebras A and B.

    One closure pass per factor decides that it is a subalgebra and keeps
    its products' coordinates on its rows (`A_table`, `B_table`).  One
    inverse of the stacked basis (A's rows, then B's rows) decides that A
    and B are complementary and splits every vector along E = A + B:
    `split` gives its coordinates on both factors, and `pi_A` is the
    projection onto A along B."""

    def __init__(self, E: Algebra, A_sub: Subspace, B_sub: Subspace):
        tables = []
        for which, sub in (("first", A_sub), ("second", B_sub)):
            table, escape = _closure(E, sub)
            if escape is not None:
                raise VerificationError(f"{which} subspace is not a subalgebra")
            tables.append(table)
        f = E.field
        stacked = list(A_sub.rows) + list(B_sub.rows)
        inv = linalg.invert(f, stacked) if len(stacked) == E.dim else None
        if inv is None:
            raise VerificationError("subspaces are not complementary")
        self.E = E
        self.A_sub = A_sub
        self.B_sub = B_sub
        self.A_table, self.B_table = tables
        # row k of the inverse holds the coordinates of e_k on the stacked basis
        self._inv = inv

    @cached_property
    def pi_A(self) -> LinearMap:
        """The projection onto A along B, built on first use."""
        E = self.E
        f = E.field
        cols = [_linear(f, self.A_sub.rows, row[: self.A_sub.dim], E.dim) for row in self._inv]
        return LinearMap._of(f, E.dim, E.dim, cols)

    def split(self, v):
        """(coordinates of v on A_sub.rows, coordinates of v on B_sub.rows)."""
        return self._split(_vector(self.E.field, v, self.E.dim))

    def _split(self, v):
        """split() of a vector of E.dim field values."""
        coords = _linear(self.E.field, self._inv, v, self.E.dim)
        return coords[: self.A_sub.dim], coords[self.A_sub.dim :]


def canonical_pair(fact: Factorization) -> MatchedPair:
    """Actions x |> a and x <| a on the factors: the A and B parts of
    `fact.split(xa)`, so that xa = x |> a + x <| a.

    Also rebuilds the bicrossed product of the result and checks that
    (a, x) -> a + x is an isomorphism onto E.
    """
    E = fact.E
    f = E.field
    A_alg = Algebra._of(f, _induced_labels(E, fact.A_sub), fact.A_table)
    B_alg = Algebra._of(f, _induced_labels(E, fact.B_sub), fact.B_table)
    left_rows = []
    right_rows = []
    for x in fact.B_sub.rows:
        parts = [fact._split(E.mul_coords(x, a)) for a in fact.A_sub.rows]
        left_rows.append([la for la, _ in parts])
        right_rows.append([rv for _, rv in parts])
    mp = MatchedPair(
        A_alg,
        B_alg,
        RightAction._of(B_alg, A_alg, right_rows),
        LeftAction._of(B_alg, A_alg, left_rows),
    )
    verdict = mp.verify()
    if not verdict.ok:
        raise VerificationError(
            "canonical actions fail the matched-pair axioms:\n" + verdict.describe()
        )
    product = bicross_table(mp)
    phi = LinearMap._of(f, product.dim, E.dim, fact.A_sub.rows + fact.B_sub.rows)
    if not phi.is_invertible() or not hom_check(phi, product, E):
        raise VerificationError("(a, x) -> a + x is not an isomorphism onto E")
    return mp


def split_mono_decompose(E: Algebra, p: LinearMap):
    """Decompose E along an idempotent algebra projection p.

    Returns (right semidirect product on im p x ker p, iso (a,x) -> a+x).
    The pair is `canonical_pair` of the factorization (im p, ker p), which
    has verified it and checked that (a, x) -> a + x maps its product onto
    E isomorphically; its left action is zero because p(xa) = p(x)p(a) = 0
    for x in ker p, so that product is the right semidirect one.
    """
    if p.source_dim != E.dim or p.target_dim != E.dim:
        raise DimensionError("projection must be an endomorphism of E")
    if not hom_check(p, E, E):
        raise VerificationError("projection is not an algebra map")
    if p.compose(p) != p:
        raise VerificationError("projection is not idempotent")
    f = E.field
    image = Subspace(E, [list(col) for col in p.cols])
    kernel = Subspace(E, linalg.nullspace(f, p.rows()))
    product = bicross_table(canonical_pair(Factorization(E, image, kernel)))
    return product, LinearMap._of(f, product.dim, E.dim, image.rows + kernel.rows)


# ---------------------------------------------------------------------------
# abelian pairs: one-dimensional abelian complement


def pair_from_nilpotent(A0: Algebra, D: LinearMap, label: str = "t") -> MatchedPair:
    """The pair with <| = 0 and x |> a = D(a) on a 1-dim abelian factor.

    Not verified here: verify() passes exactly when D^3 = 0.
    """
    if not A0.is_abelian:
        raise JalgError("base algebra must be abelian")
    if D.source_dim != A0.dim or D.target_dim != A0.dim:
        raise DimensionError("D must be an endomorphism of the base algebra")
    V = Algebra.abelian(A0.field, [label])
    left = LeftAction(V, A0, [[list(D.cols[j]) for j in range(A0.dim)]])
    return MatchedPair(A0, V, RightAction.zero(V, A0), left)


@dataclass
class AbelianPairCensus:
    field: Field
    n: int
    candidates: int
    pairs: list = dc_field(default_factory=list)  # (lambda tuple, D cols, MatchedPair)

    @property
    def count(self) -> int:
        return len(self.pairs)


def _abelian_pair_conditions(field: Field, n: int):
    """The product's cube-law coefficients as polynomials in the action entries.

    The (n+1)-dim pair product (identities._pair_sparse) of the abelian
    base (e_0 .. e_{n-1}) and the abelian complement t, whose sparse forms
    are empty, with indeterminate t <| e_j = lambda_j t and t |> e_j = D e_j,
    written as sparse action cells: the only nonzero cells of the product
    are (e_j, t) = (D e_j, lambda_j t).  The product
    is Jordan, and so the pair matched, exactly at the common zeros of the
    distinct coefficients of its cube law.
    """
    lam_names = tuple(f"l{i}" for i in range(n))
    d_names = tuple(f"d{i}{j}" for i in range(n) for j in range(n))
    params = lam_names + d_names
    ring = PolyRing(field, params)
    table = identities._pair_sparse(
        [[()] * n] * n,
        [[()]],
        [[((0, ring.var(f"l{j}")),) for j in range(n)]],
        [[tuple((i, ring.var(f"d{i}{j}")) for i in range(n)) for j in range(n)]],
    )
    bad, decode = identities._cube_coefficients(field, table, table, params)
    conditions = (decode(c) for coeffs in bad.values() for c in coeffs.values())
    return params, list(dict.fromkeys(conditions))


def enumerate_abelian_pairs(n: int, field: Field) -> AbelianPairCensus:
    """All matched pairs (abelian n-dim, abelian 1-dim) over a finite field.

    One `solve_fp` search over (lambda, D) in F^n x F^(n x n) finds the
    candidates that meet the exact MP conditions, within its node budget.
    Each must also have the closed form lambda = 0, D^3 = 0 and pass the
    full symbolic check before it is admitted.
    """
    if n < 0:
        raise JalgError(f"base dimension must be at least 0, got {n}")
    params, conditions = _abelian_pair_conditions(field, n)
    A0 = Algebra.abelian(field, [f"e{i}" for i in range(n)], name=f"A0({n})")
    census = AbelianPairCensus(field, n, field.characteristic ** (n + n * n))
    for flat in solve_fp(field, params, conditions):
        lam, dvals = flat[:n], flat[n:]
        # D entries are listed row-major: dvals[i*n + j] = d_ij
        cols = tuple(tuple(dvals[i * n + j] for i in range(n)) for j in range(n))
        D = LinearMap._of(field, n, n, cols)
        mp = pair_from_nilpotent(A0, D)
        if any(lam) or any(map(any, D.compose(D).compose(D).cols)) or not mp.verify().ok:
            raise VerificationError(
                "condition scan admitted a candidate that the closed form "
                "(lambda = 0, D^3 = 0) or the full check rejects"
            )
        census.pairs.append((lam, cols, mp))
    return census
