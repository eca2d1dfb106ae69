"""Tables the library builds from ring values skip the constructor's
coercion (Algebra._of, Subspace._of, Subspace._coordinates, _Action._of,
Factorization._split).  Each fast table is checked
against the coercing constructor on the same data, over Q, F5 and F7;
inputs are still coerced at the boundary (Field.coerce_vector, one call
per cell), and symmetry is still checked.  Each table's sparse form is
kept from the constructor's pass, and a pair's product form is assembled
from its factors' forms and the action cells; both are checked against
identities._sparse of the dense table."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    DeformationMap,
    MatchedPair,
    DimensionError,
    Factorization,
    Field,
    LeftAction,
    LinearMap,
    QQ,
    JalgError,
    RightAction,
    Subspace,
    VerificationError,
    bicross,
    bicross_table,
    canonical_pair,
    catalog,
    complement_check,
    complement_recover,
    deformation_families,
    dual_action,
    enumerate_deformations,
    graph_complement,
    induced_subalgebra,
    pair_from_nilpotent,
    parse_pair,
    r_deform,
    subalgebra_check,
    subalgebra_witness,
    write_pair,
)
from jalg.algebra import _closure
from jalg.catalog import ALGEBRA_NAMES, PAIR_NAMES, _read
from jalg.deformation import _deformation_conditions, _deformed_algebra
from jalg.identities import _dense, _sparse
from jalg.poly import PolyRing
import slow_oracles as slow
from test_pair_oracle import _parametric_pairs, _random_unmatched

FIELDS = {"Q": QQ, "F5": Field(5), "F7": Field(7)}


def _pair(name, f):
    return catalog(name, field=None if f is QQ else f)


def _checked_product(mp):
    """bicross_table's data through the coercing constructor."""
    built = bicross_table(mp)
    return Algebra(mp.A.field, built.basis, slow.pair_product(mp), params=mp.A.params, name=built.name)


def _same_algebra(fast, slow):
    assert fast.table_key() == slow.table_key()
    assert (fast.basis, fast.name) == (slow.basis, slow.name)


def _maps(mp, f, rng):
    """The first 50 enumerated maps over F_p; over Q, the zero map and the
    defmap-pair families, symbolic and at seeded values of alpha."""
    if f.characteristic:
        maps = list(enumerate_deformations(mp)[:50])
    else:
        maps = [DeformationMap.zero(mp)]
    if mp.name == "defmap-pair":
        for family in deformation_families(f).values():
            maps.append(family)
            alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            maps.append(family.substitute({"alpha": alpha}))
    return maps


@pytest.mark.parametrize("name", FIELDS)
def test_built_tables_match_the_coercing_constructor(name):
    """bicross_table, relabel, r_deform and induced_subalgebra give the
    table_key() that Algebra(...) gives on the same data.  The closed
    subspaces are the graphs of those maps and the spans of basis labels
    that close."""
    f = FIELDS[name]
    rng = random.Random("built-" + name)
    closed = []
    for pair_name in PAIR_NAMES:
        mp = _pair(pair_name, f)
        checked_E = _checked_product(mp)
        _same_algebra(bicross_table(mp), checked_E)
        E = bicross(mp).product
        labels = [f"e{k}" for k in range(E.dim)]
        _same_algebra(E.relabel(labels), Algebra(f, labels, E.sc, name=E.name))
        nA = mp.A.dim
        for r in _maps(mp, f, rng):
            R = r.ring
            graph = [list(col) + [R.one if k == j else R.zero for k in range(mp.V.dim)] for j, col in enumerate(r.cols)]
            ring_E = Algebra(f, E.basis, slow.pair_product(mp), params=r.params) if r.params else checked_E
            table = [[ring_E.mul_coords(gi, gj)[nA:] for gj in graph] for gi in graph]
            _same_algebra(r_deform(mp, r), Algebra(f, mp.V.basis, table, params=r.params))
            if not r.params:
                closed.append((E, Subspace(E, graph)))
        for k in range(1, E.dim + 1):
            for subset in itertools.combinations(E.basis, k):
                U = Subspace.span_of_labels(E, subset)
                if subalgebra_check(E, U):
                    closed.append((E, U))
    assert len(closed) >= 10
    relabelled = 0
    for E, U in closed:
        sub, _ = induced_subalgebra(E, U)
        table = [[U.coordinates(E.mul_coords(ri, rj)) for rj in U.rows] for ri in U.rows]
        _same_algebra(sub, Algebra(f, sub.basis, table))
        relabelled += any(lab.startswith("s") for lab in sub.basis)
    # some graphs have rows that are not basis vectors of E
    assert relabelled


@pytest.mark.parametrize("name", FIELDS)
def test_coordinates_without_coercion(name):
    """Subspace._coordinates on field values agrees with coordinates(), in
    the span and out of it."""
    f = FIELDS[name]
    rng = random.Random("coords-" + name)
    E = Algebra.abelian(f, [f"e{k}" for k in range(5)])
    inside = outside = 0
    for _ in range(40):
        rows = [[f.coerce(rng.randint(-3, 3)) for _ in range(5)] for _ in range(rng.randint(0, 4))]
        U = Subspace(E, rows)
        for _ in range(3):
            if rng.random() < 0.5 and U.dim:
                coeffs = [f.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in U.rows]
                v = [sum((c * row[k] for c, row in zip(coeffs, U.rows)), f.zero) for k in range(5)]
                v = [f.coerce(c) for c in v]
            else:
                v = [f.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(5)]
            got = U._coordinates(v)
            assert got == U.coordinates(v)
            inside += got is not None
            outside += got is None
    assert inside and outside


def test_bicross_of_a_parsed_pair_coerces_nothing_again(monkeypatch):
    """Parsing coerces J5-pair's constants; bicross() then builds no
    Algebra through __init__ and no Factorization (its unit-vector
    embeddings split the product by construction), and the table it skips
    coercion for is still checked for symmetry."""
    mp = parse_pair(_read("J5-pair.jpair"))
    inits, facts = [], []
    init, fact_init = Algebra.__init__, Factorization.__init__

    def spy_init(self, *args, **kwargs):
        inits.append(args)
        init(self, *args, **kwargs)

    def spy_fact(self, *args):
        facts.append(args)
        fact_init(self, *args)

    monkeypatch.setattr(Algebra, "__init__", spy_init)
    monkeypatch.setattr(Factorization, "__init__", spy_fact)
    product = bicross(mp).product
    assert product.dim == 4
    assert inits == []
    assert facts == []
    # (a, b) = a but (b, a) = 0
    f = mp.A.field
    one, zero = f.one, f.zero
    sc = [[[one, zero], [one, zero]], [[zero, zero], [zero, one]]]
    for build in (Algebra, Algebra._of):
        with pytest.raises(VerificationError, match=r"^structure constants not symmetric at \(b, a\)$"):
            build(f, ("a", "b"), sc)


def _count_products(monkeypatch) -> list:
    """Every Algebra.mul_coords call from here on, as (x, y) tuples."""
    calls = []
    inner = Algebra.mul_coords

    def counted(self, x, y):
        calls.append((tuple(x), tuple(y)))
        return inner(self, x, y)

    monkeypatch.setattr(Algebra, "mul_coords", counted)
    return calls


def test_factorization_and_canonical_pair_multiply_once(monkeypatch):
    """One closure pass per factor: on J17-pair's product, Factorization
    and canonical_pair on fresh subspaces make the 15 distinct products
    once each (24 when canonical_pair redid the closure pass).  The
    subspaces keep their closure, so a second canonical_pair on them makes
    only the 6 action products x a."""
    mp = catalog("J17-pair")
    bp = bicross(mp)
    E = bp.product
    a_sub, v_sub = (Subspace(E, sub.rows) for sub in (bp.a_embedding, bp.v_embedding))
    calls = _count_products(monkeypatch)
    assert canonical_pair(Factorization(E, a_sub, v_sub)) == mp
    assert len(calls) == len(set(calls)) == 15
    calls.clear()
    assert canonical_pair(Factorization(E, a_sub, v_sub)) == mp
    assert len(calls) == len(set(calls)) == mp.A.dim * mp.V.dim == 6


def test_complement_recover_decides_each_closure_once(monkeypatch):
    """complement_recover splits through Factorization(E, A, B) and
    Factorization(E, A, bbar), which share A's closure pass: on
    defmap-pair, fresh subspaces and a graph complement cost 13 products,
    each made once (16 when A's closure was decided twice).  On bicross's
    embeddings and graph_complement's subspace, once their closures are
    decided (graph_complement decides A's and its own, subalgebra_check
    here V's), only the 4 action products are made."""
    mp = catalog("defmap-pair")
    bp = bicross(mp)
    E = bp.product
    r = deformation_families(QQ)["def4"].substitute({"alpha": Fraction(3)})
    graph = graph_complement(mp, r)
    fresh = [Subspace(E, sub.rows) for sub in (bp.a_embedding, bp.v_embedding, graph.subspace)]
    calls = _count_products(monkeypatch)
    assert complement_recover(E, *fresh).cols == r.cols
    assert len(calls) == len(set(calls)) == 13
    assert subalgebra_check(E, bp.v_embedding)
    calls.clear()
    assert complement_recover(E, bp.a_embedding, bp.v_embedding, graph.subspace).cols == r.cols
    assert len(calls) == len(set(calls)) == mp.A.dim * mp.V.dim == 4


@pytest.mark.parametrize("name", FIELDS)
def test_closure_is_decided_once_and_kept_immutable(monkeypatch, name):
    """A Subspace keeps _closure's answer: a second ask, subalgebra_check
    on a graph complement's subspace among them, makes no product.  The
    kept table and escaping product are tuples, and subalgebra_witness
    hands out a new list each time."""
    f = FIELDS[name]
    mp = _pair("defmap-pair", f)
    E = bicross(mp).product
    r = next(r for r in _maps(mp, f, random.Random("closure-" + name)) if not (r.params or r.is_zero))
    graph = graph_complement(mp, r)
    calls = _count_products(monkeypatch)
    assert subalgebra_check(E, graph.subspace)
    assert _closure(E, graph.subspace) is _closure(E, graph.subspace)
    assert not calls
    table, escape = _closure(E, graph.subspace)
    assert escape is None
    assert type(table) is tuple and all(type(c) is tuple for row in table for c in row)

    open_span = Subspace(E, [[1, 0, 1, 0], [1, 0, 0, 1]])  # (u + a)(v + a) leaves it
    witness = subalgebra_witness(E, open_span)
    assert witness is not None and type(witness[2]) is list
    made = len(calls)
    witness[2][:] = [f.zero] * E.dim
    assert subalgebra_witness(E, open_span) != witness
    assert len(calls) == made
    table, (i, j, prod) = _closure(E, open_span)
    assert table is None and type(prod) is tuple
    with pytest.raises(JalgError, match="does not live in the given algebra"):
        _closure(bicross(_pair("J5-pair", f)).product, open_span)


@pytest.mark.parametrize("name", FIELDS)
def test_canonical_actions_match_the_coercing_constructor(name):
    """canonical_pair splits each product x a with Factorization._split and
    builds its actions with _Action._of.  The actions equal the coercing
    constructor's on the same tensors, entry by entry and type by type, and
    _split agrees with split on field values."""
    f = FIELDS[name]
    rng = random.Random("split-" + name)
    for pair_name in PAIR_NAMES:
        bp = bicross(_pair(pair_name, f))
        fact = Factorization(bp.product, bp.a_embedding, bp.v_embedding)
        mp = canonical_pair(fact)
        for action, build in ((mp.right, RightAction), (mp.left, LeftAction)):
            assert action == build(mp.V, mp.A, action.tensor)
            for cell in (cell for row in action.tensor for cell in row):
                assert all(type(c) is type(f.coerce(c)) and c == f.coerce(c) for c in cell)
        for _ in range(20):
            v = [f.coerce(rng.randint(-4, 4)) for _ in range(bp.product.dim)]
            assert fact._split(v) == fact.split(v)


def test_action_of_keeps_the_dimension_checks():
    mp = _pair("J7-pair", QQ)
    V, A = mp.V, mp.A
    tensor = [list(row) for row in mp.right.tensor]
    bad = {
        "^action tensor must have one row per V basis vector$": tensor[:-1],
        "^action row length must equal dim A$": [row[:-1] for row in tensor],
        "^action value has the wrong dimension$": [[cell[:-1] for cell in row] for row in tensor],
    }
    for message, wrong in bad.items():
        for build in (RightAction, RightAction._of):
            with pytest.raises(DimensionError, match=message):
                build(V, A, wrong)
    assert RightAction._of(V, A, tensor) == mp.right


def test_canonical_pair_coerces_no_split_or_action_value(monkeypatch):
    """On the block sum of two copies of every catalog pair's product, split
    into a (20, 16) pair, canonical_pair makes no Field.coerce call of its
    own: the 23,040 calls that split and the action constructors made on
    the products x a are gone."""
    products = [bicross(_pair(n, QQ)).product for n in PAIR_NAMES] * 2
    a_dims = [_pair(n, QQ).A.dim for n in PAIR_NAMES] * 2
    dim = sum(E.dim for E in products)
    sc = [[[QQ.zero] * dim for _ in range(dim)] for _ in range(dim)]
    a_rows, v_rows, off = [], [], 0
    for E, na in zip(products, a_dims):
        for i, j in itertools.product(range(E.dim), repeat=2):
            sc[off + i][off + j][off : off + E.dim] = E.sc[i][j]
        for i in range(E.dim):
            unit = [QQ.zero] * dim
            unit[off + i] = QQ.one
            (a_rows if i < na else v_rows).append(unit)
        off += E.dim
    E = Algebra(QQ, [f"e{k}" for k in range(dim)], sc)
    fact = Factorization(E, Subspace(E, a_rows), Subspace(E, v_rows))
    callers = []
    inner = Field.coerce

    def counted(self, value):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return inner(self, value)

    monkeypatch.setattr(Field, "coerce", counted)
    mp = canonical_pair(fact)
    assert (mp.A.dim, mp.V.dim) == (20, 16)
    assert "jalg.matched_pair" not in callers


def test_factorization_error_texts(j5):
    closed = Subspace.span_of_labels(j5, ["u", "v"])
    # span{a+u, b} is not closed: (a+u).b = u/2 escapes
    open_span = Subspace(j5, [[1, 0, 1, 0], [0, 1, 0, 0]])
    with pytest.raises(VerificationError, match="^first subspace is not a subalgebra$"):
        Factorization(j5, open_span, closed)
    with pytest.raises(VerificationError, match="^second subspace is not a subalgebra$"):
        Factorization(j5, closed, open_span)


def test_pi_a_is_built_on_first_use(monkeypatch):
    """Factorization decides complementarity by its inverse alone; pi_A is
    built when read, once."""
    mp = catalog("J17-pair")
    bp = bicross(mp)
    fact = Factorization(bp.product, bp.a_embedding, bp.v_embedding)
    assert "pi_A" not in vars(fact)
    p = fact.pi_A
    assert fact.pi_A is p
    assert p.compose(p) == p
    assert all(p.apply(row) == list(row) for row in bp.a_embedding.rows)
    assert all(not any(p.apply(row)) for row in bp.v_embedding.rows)


@pytest.mark.parametrize("name,p", [("J7-pair", 7), ("defmap-pair", 5)])
def test_deformation_map_keeps_only_the_deformed_table(name, p):
    """After the check a map holds its verdict and V_r, an Algebra on V's
    basis whose table is x . y = xy + x <| r(y) + y <| r(x) (the oracle's
    V_r), and r_deform returns that same object."""
    mp = catalog(name, field=Field(p))
    for r in enumerate_deformations(mp)[:20]:
        verdict, deformed = r._verdict, _deformed_algebra(mp, r)
        assert verdict.ok
        assert isinstance(deformed, Algebra) and deformed.basis == mp.V.basis
        assert deformed.sc == slow.deformed_table(mp, r)
        assert r_deform(mp, r) is deformed


def _typed(form):
    """A sparse form with each entry's type beside it, so that equal values
    of different types (1 and Fraction(1)) do not pass for each other."""
    return [[[(k, type(c), c) for k, c in cell] for cell in row] for row in form]


def _raw_entry(rng, ring):
    """An input entry as a caller may write it: zero half the time, else a
    bool, a negative or unreduced int, a Fraction, or over F[t] a
    polynomial."""
    if rng.random() < 0.5:
        return rng.choice([0, False, ring.zero])
    value = rng.choice([True, rng.randint(-20, 20), Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))])
    if isinstance(ring, PolyRing):
        return ring.add(ring.coerce(value), ring.mul(ring.var("t"), ring.coerce(rng.randint(-2, 2))))
    return value


def _raw_table(rng, ring, n):
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sc[i][j] = [_raw_entry(rng, ring) for _ in range(n)]
            sc[j][i] = list(sc[i][j])
    return sc


def _polynomial_pair(rng, f):
    """A pair over F[t] with all four blocks of its product random
    polynomials, most of them zero; it need not be matched."""
    ring = PolyRing(f, ("t",))
    A = Algebra(f, ("a0", "a1"), _raw_table(rng, ring, 2), params=("t",))
    V = Algebra(f, ("x0", "x1", "x2"), _raw_table(rng, ring, 3), params=("t",))
    right = [[[_raw_entry(rng, ring) for _ in range(3)] for _ in range(2)] for _ in range(3)]
    left = [[[_raw_entry(rng, ring) for _ in range(2)] for _ in range(2)] for _ in range(3)]
    return MatchedPair(A, V, RightAction(V, A, right), LeftAction(V, A, left))


def _one_sided(mp):
    """The pair's two one-sided pairs: its right action alone, then its
    left action alone."""
    return (
        MatchedPair(mp.A, mp.V, mp.right, LeftAction.zero(mp.V, mp.A)),
        MatchedPair(mp.A, mp.V, RightAction.zero(mp.V, mp.A), mp.left),
    )


@pytest.mark.parametrize("name", FIELDS)
def test_product_sparse_is_the_product_tables_sparse_form(name):
    """product_sparse(), assembled from the factors' kept forms and the
    action cells, equals _sparse of the dense product built cell by cell
    (slow.pair_product), entry by entry and type by type: on every catalog
    pair and both of its one-sided pairs, on the seeded random pairs of
    tests/test_pair_oracle.py, on its pairs over F[alpha] and on a pair
    over F[t] with all four blocks nonzero.  bicross_table shares it, and
    its dense table, densified from it, is the oracle's."""
    f = FIELDS[name]
    rng = random.Random("pairs-" + name)
    catalog_pairs = [_pair(pair_name, f) for pair_name in PAIR_NAMES]
    pairs = catalog_pairs + [one for mp in catalog_pairs for one in _one_sided(mp)]
    pairs += [_random_unmatched(rng, f, na, nv) for na, nv in ((2, 2), (3, 2)) for _ in range(15)]
    pairs += [*_parametric_pairs(f), _polynomial_pair(random.Random("poly-" + name), f)]
    assert any(mp.A.params for mp in pairs) and any(not mp.verify().ok for mp in pairs)
    for mp in pairs:
        dense = slow.pair_product(mp)
        assert _typed(mp.product_sparse()) == _typed(_sparse(dense, mp.A.ring))
        built = bicross_table(mp)
        assert built.sparse_sc() is mp.product_sparse()
        assert built.sc == dense


@pytest.mark.parametrize("name", FIELDS)
def test_dense_inverts_sparse_on_the_catalog_tables(name):
    """_dense(_sparse(t)) == t on every catalog algebra's table, each
    catalog pair's factors and its dense product, and the empty cells of
    one table are one all-zero tuple."""
    f = FIELDS[name]
    tables = [(A.sc, A.ring) for A in (_pair(n, f) for n in ALGEBRA_NAMES)]
    for mp in (_pair(n, f) for n in PAIR_NAMES):
        tables += [(mp.A.sc, mp.A.ring), (mp.V.sc, mp.V.ring), (slow.pair_product(mp), mp.A.ring)]
    for table, ring in tables:
        dense = _dense(_sparse(table, ring), len(table), ring.zero)
        assert dense == table
        empty = {id(cell) for row in dense for cell in row if not any(cell)}
        assert len(empty) <= 1


@pytest.mark.parametrize("name", [*FIELDS, "Q[t]"])
def test_constructors_keep_the_tables_sparse_form(name):
    """Algebra(...) on raw entries (bools, negative and unreduced ints,
    Fractions, polynomials) and Algebra._of on its ring values keep
    sparse_sc() equal to _sparse of the dense table, entry by entry and
    type by type; so do the catalog algebras."""
    f = FIELDS.get(name, QQ)
    params = ("t",) if name == "Q[t]" else ()
    ring = PolyRing(f, params) if params else f
    rng = random.Random("sparse-" + name)
    algebras = [] if params else [catalog(n, field=None if f is QQ else f) for n in ALGEBRA_NAMES]
    for n in range(4):
        labels = [f"e{k}" for k in range(n)]
        A = Algebra(f, labels, _raw_table(rng, ring, n), params=params)
        algebras += [A, Algebra._of(f, labels, A.sc, params=params)]
    for A in algebras:
        assert _typed(A.sparse_sc()) == _typed(_sparse(A.sc, A.ring))


def _built_actions(name):
    """Actions built every way the library builds one, over FIELDS[name]
    or, for "Q[t]", over Q with the parameter t."""
    f = FIELDS.get(name, QQ)
    params = ("t",) if name == "Q[t]" else ()
    ring = PolyRing(f, params) if params else f
    rng = random.Random("actions-" + name)
    actions = []
    for nv, na in ((1, 1), (2, 3), (3, 2)):
        V = Algebra.from_products(f, [f"x{k}" for k in range(nv)], {}, params=params)
        A = Algebra.from_products(f, [f"a{k}" for k in range(na)], {}, params=params)
        for cls in (RightAction, LeftAction):
            out = cls._roles(V, A)[1]
            raw = [[[_raw_entry(rng, ring) for _ in out.basis] for _ in A.basis] for _ in V.basis]
            built = cls(V, A, raw)
            images = {
                (x, a): dict(zip(out.basis, raw[i][j]))
                for i, x in enumerate(V.basis)
                for j, a in enumerate(A.basis)
            }
            actions += [built, cls._of(V, A, built.tensor), cls.from_images(V, A, images), cls.zero(V, A)]
    if params:
        t = ring.var("t")
        A = Algebra.from_products(f, ["a"], {("a", "a"): {"a": t}}, params=params)
        return actions + [dual_action(A)]
    pairs = [_pair(pair_name, f) for pair_name in PAIR_NAMES]  # to_field over F_p
    pairs += [parse_pair(write_pair(mp)) for mp in pairs]
    pairs += list(_parametric_pairs(f))
    for mp in pairs[: len(PAIR_NAMES)]:
        bp = bicross(mp)
        pairs.append(canonical_pair(Factorization(bp.product, bp.a_embedding, bp.v_embedding)))
    nilpotent = LinearMap(f, 2, 2, [[0, 1], [0, 0]])
    pairs.append(pair_from_nilpotent(Algebra.abelian(f, ["e0", "e1"]), nilpotent))
    actions += [action for mp in pairs for action in (mp.right, mp.left)]
    return actions + [dual_action(_pair(alg, f)) for alg in ("J5", "J7", "J17")]


@pytest.mark.parametrize("name", [*FIELDS, "Q[t]"])
def test_every_action_keeps_its_tensors_sparse_form(name):
    """Every way an action is built keeps sparse_tensor equal to _sparse of
    its dense tensor, entry by entry and type by type: the coercing
    constructor on raw entries, _of on its ring values, from_images and
    zero; and over a field the actions of MatchedPair.to_field (the
    catalog pairs over F_p), parse_pair, canonical_pair,
    pair_from_nilpotent, dual_action and the pairs over F[alpha] of
    tests/test_pair_oracle.py, over Q[t] those of dual_action."""
    actions = _built_actions(name)
    assert any(not action.is_zero() for action in actions)
    for action in actions:
        assert _typed(action.sparse_tensor) == _typed(_sparse(action.tensor, action.A.ring))


@pytest.mark.parametrize("name", [*FIELDS, "Q[t]"])
def test_coerce_vector_is_coerce_on_each_entry(name):
    """coerce_vector takes its fast path on plain ints over F_p and on
    Fractions over Q; on every cell, mixed or not, it gives what coerce
    gives entry by entry, type by type, from a tuple, a list or an
    iterator."""
    f = FIELDS.get(name, QQ)
    ring = PolyRing(f, ("t",)) if name == "Q[t]" else f
    cells = [
        (),
        (0, 3, -4, 12, -7, 5, 14),
        (True, False, 2),
        (Fraction(3, 4), Fraction(-6, 2), Fraction(0)),
        (True, -3, 15, Fraction(1, 2)),
        tuple(ring.coerce(c) for c in (0, 1, -1, Fraction(2, 3))),
    ]
    for cell in cells:
        want = [(type(c), c) for c in map(ring.coerce, cell)]
        for given in (cell, list(cell), iter(cell)):
            got = ring.coerce_vector(given)
            assert type(got) is tuple
            assert [(type(c), c) for c in got] == want


@pytest.mark.parametrize(
    "f,bad,text",
    [
        (Field(7), Fraction(3, 14), "cannot coerce 3/14 into F7: its denominator is divisible by 7"),
        (Field(5), Fraction(1, 10), "cannot coerce 1/10 into F5: its denominator is divisible by 5"),
        (Field(7), 0.5, "cannot coerce 0.5 into F7"),
        (Field(7), "1", "cannot coerce '1' into F7"),
        (QQ, 0.5, "cannot coerce 0.5 into Q"),
        (QQ, "1", "cannot coerce '1' into Q"),
    ],
)
def test_coerce_vector_refuses_with_the_text_of_coerce(f, bad, text):
    with pytest.raises(JalgError) as single:
        f.coerce(bad)
    assert str(single.value) == text
    for cell in ((bad,), (1, bad, 2), (Fraction(1, 2), bad), (bad, 0.25)):
        with pytest.raises(JalgError) as vector:
            f.coerce_vector(cell)
        assert str(vector.value) == text


def test_enumerated_maps_are_coerced_per_column(monkeypatch):
    """DeformationMap coerces each column with coerce_vector: enumerating
    defmap-pair's 20 maps over F5 makes no Field.coerce call from the
    deformation layer (80 before, one per entry).  The calls left are the
    constants of the generic map's polynomial ring, made once per
    enumeration.  The constructor still refuses what coerce refuses, with
    coerce's text."""
    mp = catalog("defmap-pair", field=Field(5))
    callers = []
    inner = Field.coerce

    def counted(self, value):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return inner(self, value)

    monkeypatch.setattr(Field, "coerce", counted)
    assert len(enumerate_deformations(mp)) == 20
    assert set(callers) <= {"jalg.poly"}
    monkeypatch.undo()
    for pair, bad, text in (
        (mp, Fraction(1, 5), "cannot coerce 1/5 into F5: its denominator is divisible by 5"),
        (mp, 0.5, "cannot coerce 0.5 into F5"),
        (catalog("defmap-pair"), 0.5, "cannot coerce 0.5 into Q"),
    ):
        with pytest.raises(JalgError) as err:
            DeformationMap(pair, [[1, 0], [bad, 0]])
        assert str(err.value) == text


@pytest.mark.parametrize("name", ["Q", "F5", "F7"])
def test_deformation_conditions_lift_field_values_without_coercion(monkeypatch, name):
    """The generic map's conditions read the pair's product form and lift
    its field values into the polynomial ring as they are: on every catalog
    pair, and on seeded random pairs, no Field.coerce call (re-coercing
    the dense product through _sparse, and the ring's 1 through const, made
    8 per enumerate_deformations on defmap-pair over F5).  The conditions
    equal the deformation identity written out term by term on the same
    generic map."""
    f = FIELDS[name]
    pairs = [parse_pair(write_pair(_pair(n, f))) for n in PAIR_NAMES]
    rng = random.Random(f"conditions-{name}")
    pairs += [_random_unmatched(rng, f, na, nv) for na, nv in ((2, 2), (3, 2), (2, 3)) for _ in range(2)]
    for mp in pairs:
        mp.product_sparse()
    coerced = []
    inner = Field.coerce

    def counted(self, value):
        coerced.append(value)
        return inner(self, value)

    monkeypatch.setattr(Field, "coerce", counted)
    results = [_deformation_conditions(mp.product_sparse(), mp.A.dim, f) for mp in pairs]
    assert coerced == []
    monkeypatch.undo()
    for mp, (params, conditions) in zip(pairs, results):
        ring = PolyRing(f, params)
        nA, nV = mp.A.dim, mp.V.dim
        generic = DeformationMap(mp, [[ring.var(f"r{j}_{k}") for k in range(nA)] for j in range(nV)], params)
        assert conditions == [c for _, _, res in slow.deformation_residuals(mp, generic) for c in res]


@pytest.mark.parametrize("name", ["Q", "F7", "Q[t]"])
def test_asymmetric_tables_are_refused(name):
    """Symmetry is decided on the sparse cells with the dense check's
    message: for a cell zero on one side only, and for cells of equal
    support that differ in value.  A misshapen table is refused for its
    shape first, as before."""
    f = FIELDS.get(name, QQ)
    params = ("t",) if name == "Q[t]" else ()
    ring = PolyRing(f, params) if params else f
    one, zero, two = ring.one, ring.zero, ring.coerce(2)
    t = ring.var("t") if params else ring.coerce(3)
    for ab, ba in (((one, zero), (zero, zero)), ((one, zero), (two, zero)), ((zero, t), (zero, one))):
        sc = [[[one, zero], list(ab)], [list(ba), [zero, one]]]
        for build in (Algebra, Algebra._of):
            with pytest.raises(VerificationError, match=r"^structure constants not symmetric at \(b, a\)$"):
                build(f, ("a", "b"), sc, params=params)
        sc[1][1] = [one]
        for build in (Algebra, Algebra._of):
            with pytest.raises(DimensionError, match=r"^tensor cell \(1,1\) has length 1$"):
                build(f, ("a", "b"), sc, params=params)


def test_complements_are_decided_on_field_values(monkeypatch):
    """bicross's unit embeddings, graph_complement's graph and
    Subspace.sum and intersect are built by Subspace._of on field values,
    and complement_check decides by one rank without building a Subspace:
    on defmap-pair over F5 none of them calls Field.coerce.  Each subspace
    equals the coercing constructor's on its rows."""
    f = Field(5)
    mp = _pair("defmap-pair", f)
    maps = enumerate_deformations(mp)[:10]
    coerced, built = [], []
    inner_coerce, inner_set = Field.coerce, Subspace._set

    def spy_coerce(self, value):
        coerced.append(value)
        return inner_coerce(self, value)

    def spy_set(self, *args):
        built.append(args)
        inner_set(self, *args)

    monkeypatch.setattr(Field, "coerce", spy_coerce)
    monkeypatch.setattr(Subspace, "_set", spy_set)
    subspaces = []
    for r in maps:
        graph = graph_complement(mp, r)
        bp = graph.extension
        E = bp.product
        subspaces += [bp.a_embedding, bp.v_embedding, graph.subspace]
        subspaces += [bp.a_embedding.sum(graph.subspace), bp.v_embedding.intersect(graph.subspace)]
        made = len(built)
        assert complement_check(E, bp.a_embedding, graph.subspace)
        assert not complement_check(E, bp.v_embedding, bp.v_embedding)
        assert len(built) == made
    assert coerced == []
    monkeypatch.undo()
    for U in subspaces:
        assert U == Subspace(U.ambient, U.rows)
