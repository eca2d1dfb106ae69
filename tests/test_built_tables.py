"""Tables the library builds from ring values skip the constructor's
coercion (Algebra._of, Subspace._coordinates, _Action._of,
Factorization._split).  Each fast table is checked
against the coercing constructor on the same data, over Q, F5 and F7;
inputs are still coerced at the boundary, and symmetry is still checked."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    DeformationMap,
    DimensionError,
    Factorization,
    Field,
    LeftAction,
    QQ,
    JalgError,
    RightAction,
    Subspace,
    VerificationError,
    bicross,
    bicross_table,
    canonical_pair,
    catalog,
    complement_recover,
    deformation_families,
    enumerate_deformations,
    graph_complement,
    induced_subalgebra,
    parse_pair,
    r_deform,
    subalgebra_check,
    subalgebra_witness,
)
from jalg.algebra import _closure
from jalg.catalog import PAIR_NAMES, _read
from jalg.deformation import _graph

FIELDS = {"Q": QQ, "F5": Field(5), "F7": Field(7)}


def _pair(name, f):
    return catalog(name, field=None if f is QQ else f)


def _checked_product(mp):
    """bicross_table's data through the coercing constructor."""
    built = bicross_table(mp)
    return Algebra(mp.A.field, built.basis, mp.product_sc(), params=mp.A.params, name=built.name)


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
            graph = _graph(r.ring, r)
            ring_E = Algebra(f, E.basis, mp.product_sc(), params=r.params) if r.params else checked_E
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
    Algebra through __init__, still decides its embeddings with one
    Factorization, and the table it skips coercion for is still checked
    for symmetry."""
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
    assert len(facts) == 1
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
    once each (24 when canonical_pair redid the closure pass).  bicross
    decided its own embeddings' closure, which they keep, so on them only
    the 6 action products x a are made."""
    mp = catalog("J17-pair")
    bp = bicross(mp)
    E = bp.product
    a_sub, v_sub = (Subspace(E, sub.rows) for sub in (bp.a_embedding, bp.v_embedding))
    calls = _count_products(monkeypatch)
    assert canonical_pair(Factorization(E, a_sub, v_sub)) == mp
    assert len(calls) == len(set(calls)) == 15
    calls.clear()
    assert canonical_pair(Factorization(E, bp.a_embedding, bp.v_embedding)) == mp
    assert len(calls) == len(set(calls)) == mp.A.dim * mp.V.dim == 6


def test_complement_recover_decides_each_closure_once(monkeypatch):
    """complement_recover splits through Factorization(E, A, B) and
    Factorization(E, A, bbar), which share A's closure pass: on
    defmap-pair, fresh subspaces and a graph complement cost 13 products,
    each made once (16 when A's closure was decided twice).  On bicross's
    embeddings and graph_complement's subspace, all decided already, only
    the 4 action products are made."""
    mp = catalog("defmap-pair")
    bp = bicross(mp)
    E = bp.product
    r = deformation_families(QQ)["def4"].substitute({"alpha": Fraction(3)})
    graph = graph_complement(mp, r)
    fresh = [Subspace(E, sub.rows) for sub in (bp.a_embedding, bp.v_embedding, graph.subspace)]
    calls = _count_products(monkeypatch)
    assert complement_recover(E, *fresh).cols == r.cols
    assert len(calls) == len(set(calls)) == 13
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
    """After the check a map holds its verdict and V_r's table, which is
    the table r_deform builds V_r on."""
    mp = catalog(name, field=Field(p))
    for r in enumerate_deformations(mp)[:20]:
        verdict, table = r._checked
        assert verdict.ok
        assert tuple(map(tuple, table)) == r_deform(mp, r).sc
