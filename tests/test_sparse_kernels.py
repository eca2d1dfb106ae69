"""The sparse contraction kernels against the dense protocol loops they
replaced (tests/slow_oracles.py), and the per-object caches they read.

`_bilinear` and `_hom_mismatches` contract a table's sparse form, and over
a Field they run in plain int or Fraction operators, reducing mod p once
per output coordinate.  Their results must equal the dense loops' in value
and order, and each (i, j, residual) that `_hom_mismatches` yields must be
a mismatch (i, j, lhs, rhs) of the dense loop with residual = lhs - rhs:
over Q, F5, F7 and Q[t], on sparse and dense tables, with zero vectors and
with F_p inputs given as unreduced ints.  The invariants of `iso_search`, which
compose multiplication operators through `_linear`, must equal the dense
matrix products' on every catalog algebra and on random tables, and its
element buckets, which scale one key along each line through the origin,
must equal a direct scan of the dense keys, in key and member order.
"""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

import slow_oracles as slow
from jalg import (
    Algebra,
    Field,
    LeftAction,
    LinearMap,
    MatchedPair,
    QQ,
    RightAction,
    VerificationError,
    bicross,
    catalog,
    equiv_check,
    factorization_index,
    hom_check,
    map_to_quadruple,
    quadruple_check,
)
from jalg.catalog import ALGEBRA_NAMES, _read
from jalg.fileio import parse_pair
from jalg.identities import _bilinear, _hom_mismatches, _linear, _nonzero_columns, _sparse
from jalg.morphism import _element_index, _element_key, _trace_form_ranks, classify_dim2
from jalg.poly import PolyRing
from slow_oracles import blockwise_quadruple_check

F5, F7 = Field(5), Field(7)
RINGS = [QQ, F5, F7, PolyRing(QQ, ("t",))]


def _entry(rng, ring, zero_probability):
    """A ring value: zero with the given probability."""
    if rng.random() < zero_probability:
        return ring.zero
    value = ring.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if isinstance(ring, PolyRing):
        value = ring.add(value, ring.mul(ring.var("t"), ring.coerce(rng.randint(-2, 2))))
    return value


def _input(rng, ring, zero_probability):
    """A coordinate as a caller may pass it: over F_p an unreduced int."""
    if getattr(ring, "characteristic", 0) and rng.random() < 0.5:
        return rng.choice([0, ring.characteristic, -ring.characteristic]) + rng.randint(-9, 9)
    return _entry(rng, ring, zero_probability)


def _vectors(rng, ring, dim, zero_probability):
    """A zero vector, then random ones."""
    yield [ring.zero] * dim
    for _ in range(3):
        yield [_input(rng, ring, zero_probability) for _ in range(dim)]


def _table(rng, ring, rows, cols, out, zero_probability):
    return [
        [[_entry(rng, ring, zero_probability) for _ in range(out)] for _ in range(cols)]
        for _ in range(rows)
    ]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("zero_probability", [0.8, 0.1], ids=["sparse", "dense"])
def test_bilinear_and_linear_match_the_protocol_loops(ring, zero_probability):
    rng = random.Random(f"{ring}-{zero_probability}")
    for dim in range(1, 7):
        out = rng.randint(1, 6)
        table = _table(rng, ring, dim, dim, out, zero_probability)
        sparse = _sparse(table, ring)
        for u, v in zip(_vectors(rng, ring, dim, zero_probability), _vectors(rng, ring, dim, 0.5)):
            assert _bilinear(ring, sparse, u, v, out) == slow._bilinear(ring, table, u, v, out)
        cols = table[0]
        for x in _vectors(rng, ring, dim, zero_probability):
            assert _linear(ring, cols, x, out) == slow._linear(ring, cols, x, out)


def _dense_residuals(ring, sc, sc2, images) -> list:
    """The dense loop's mismatches (i, j, lhs, rhs) as (i, j, lhs - rhs)."""
    return [
        (i, j, [ring.sub(a, b) for a, b in zip(lhs, rhs)])
        for i, j, lhs, rhs in slow._hom_mismatches(ring, sc, sc2, images)
    ]


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("zero_probability", [0.8, 0.1], ids=["sparse", "dense"])
def test_hom_mismatches_yield_the_protocol_loops_tuples(ring, zero_probability):
    rng = random.Random(f"hom-{ring}-{zero_probability}")
    for n, m in itertools.product(range(1, 7), repeat=2):
        if n * m > 16 and isinstance(ring, PolyRing):
            continue  # Poly arithmetic: keep the parametric cases small
        sc = _table(rng, ring, n, n, n, zero_probability)
        sc2 = _table(rng, ring, m, m, m, zero_probability)
        zero = [[ring.zero] * m for _ in range(n)]
        unit = [[ring.one if k == j else ring.zero for k in range(m)] for j in range(n)]
        images = [[_input(rng, ring, zero_probability) for _ in range(m)] for _ in range(n)]
        sparse, sparse2 = _sparse(sc, ring), _sparse(sc2, ring)
        for cols in (zero, unit, images):
            fast = list(_hom_mismatches(ring, sparse, sparse2, _nonzero_columns(cols)))
            assert fast == _dense_residuals(ring, sc, sc2, cols)
        if n == m:  # a homomorphism yields nothing: the identity of one table
            assert list(_hom_mismatches(ring, sparse, sparse, _nonzero_columns(unit))) == []


def _one_dim_pairs():
    """The scan's matched pairs with two 1-dim factors over F5."""
    for s, t, wr, wl in itertools.product(range(5), repeat=4):
        A = Algebra.from_products(F5, ("a",), {("a", "a"): {"a": s}})
        V = Algebra.from_products(F5, ("x",), {("x", "x"): {"x": t}})
        mp = MatchedPair(A, V, RightAction(V, A, [[[wr]]]), LeftAction(V, A, [[[wl]]]))
        if mp.verify().ok:
            yield mp


def test_scan_pairs_hom_and_quadruple_verdicts():
    """All 89 x 625 maps of the scan's one-dim pairs: hom_check against the
    dense residual on the product, quadruple_check against C1-C6 written
    out, and the yielded residuals, read off the map's kept nonzero
    columns, against the dense loops' lhs - rhs."""
    pairs = list(_one_dim_pairs())
    assert len(pairs) == 89
    maps = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(5), repeat=4)]
    homs = 0
    for mp in pairs:
        E = bicross(mp).product
        for cols in maps:
            psi = LinearMap(F5, 2, 2, cols)
            dense = _dense_residuals(F5, E.sc, E.sc, psi.cols)
            assert hom_check(psi, E, E) == (not dense)
            cols = psi._nonzero_cols()
            assert cols == _nonzero_columns(psi.cols) and psi._nonzero_cols() is cols
            assert list(_hom_mismatches(F5, E.sparse_sc(), E.sparse_sc(), cols)) == dense
            qd = map_to_quadruple(psi, mp, mp)
            assert quadruple_check(qd) == blockwise_quadruple_check(qd)
            homs += not dense
    assert homs > len(pairs)  # every pair has the zero map and the identity


def test_sparse_forms_and_bicross_are_built_once():
    mp = next(_one_dim_pairs())
    assert mp.A.sparse_sc() is mp.A.sparse_sc()
    assert mp.product_sparse() is mp.product_sparse()
    first = bicross(mp)
    assert bicross(mp) is first
    assert first.product.sparse_sc() is mp.product_sparse()


def test_verify_then_bicross_builds_one_sparse_form(monkeypatch):
    """Each table's sparse form is built once, by the object that reads it:
    an algebra and an action keep theirs from the constructor's pass, a
    pair joins its product's from those, and a deformation map keeps V_r
    as an Algebra.  On a freshly parsed J5-pair, verify(), bicross(), both
    actions' check() and apply(), and over F5 factorization_index (which
    runs r_deform and equiv_check on every map) and equiv_check call
    _sparse on no table, and bicross's product shares the pair's form.
    jordan_check and mul_coords on a fresh algebra call it on no table
    either."""
    built = []

    def counted(table, ring):
        built.append(table)
        return _sparse(table, ring)

    for name in ("identities", "algebra", "matched_pair", "deformation", "morphism"):
        module = importlib.import_module(f"jalg.{name}")
        if hasattr(module, "_sparse"):
            monkeypatch.setattr(module, "_sparse", counted)
    mp = parse_pair(_read("J5-pair.jpair"))
    assert mp.verify().ok
    product = bicross(mp).product
    for action in (mp.right, mp.left):
        assert action.check().ok
        action.apply([1] * mp.V.dim, [1] * mp.A.dim)
    A = Algebra(mp.A.field, mp.A.basis, mp.A.sc)
    assert A.jordan_check().ok
    A.mul_coords(A.sc[0][0], A.sc[1][1])
    mp5 = mp.to_field(F5)
    report = factorization_index(mp5)
    r, s = report.maps[0], report.maps[-1]
    # the identity is an isomorphism V_r -> V_s exactly when the tables agree
    assert equiv_check(mp5, r, s, LinearMap.identity(F5, mp5.V.dim)) == (report.deformed[0] == report.deformed[-1])
    assert built == []
    assert product.sparse_sc() is mp.product_sparse()
    assert mp.product_sparse() == _sparse(slow.pair_product(mp), mp.A.ring)
    assert A.sparse_sc() == _sparse(A.sc, A.ring)


def test_unmatched_pair_raises_on_every_bicross_call():
    A = Algebra.from_products(F5, ("a",), {("a", "a"): {"a": 1}})
    V = Algebra.from_products(F5, ("x",), {("x", "x"): {"x": 1}})
    mp = MatchedPair(A, V, RightAction(V, A, [[[1]]]), LeftAction(V, A, [[[1]]]))
    assert not mp.verify().ok
    for _ in range(2):
        with pytest.raises(VerificationError, match="not a matched pair"):
            bicross(mp)


def _random_algebra(rng, f, n, zero_probability):
    """A commutative table with random entries: mostly not Jordan."""
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sc[i][j] = sc[j][i] = [_entry(rng, f, zero_probability) for _ in range(n)]
    return Algebra(f, tuple(f"e{k}" for k in range(n)), sc)


@pytest.mark.parametrize("f", [QQ, F5, F7, Field(13)], ids=str)
def test_invariants_match_the_dense_oracle(f):
    """Trace-form ranks and element keys on the nine catalog algebras and
    on seeded random tables of dims 1-5, sparse and dense."""
    rng = random.Random(f"invariants-{f}")
    algebras = [catalog(name, field=None if f is QQ else f) for name in ALGEBRA_NAMES]
    for n in range(1, 6):
        algebras += [_random_algebra(rng, f, n, zp) for zp in (0.8, 0.2)]
    assert any(not A.is_jordan for A in algebras)
    for A in algebras:
        assert _trace_form_ranks(A) == slow._trace_form_ranks(A)
        units = [[f.one if k == j else f.zero for k in range(A.dim)] for j in range(A.dim)]
        for x in [*units, *_vectors(rng, f, A.dim, 0.5)]:
            assert _element_key(A, x) == slow._element_key(A, x)


@pytest.mark.parametrize("f", [F5, F7, Field(11), Field(13)], ids=str)
def test_element_buckets_match_a_scan_of_the_dense_keys(f):
    """Every element keyed by the dense oracle, in lexicographic order: the
    planar catalog algebras and seeded random tables of dims 0-3 (p^n at
    most 2401), sparse and dense, Jordan or not.  For each key of the scan
    the element index's column is the scan's list; a key that no element
    has gives []; and classify_dim2's element counts are the scan's."""
    p = f.characteristic
    rng = random.Random(f"buckets-{f}")
    algebras = [catalog(name, field=f) for name in ALGEBRA_NAMES]
    algebras = [Algebra(f, A.basis, A.sc) for A in algebras if A.dim == 2]
    for n in range(4):
        algebras += [_random_algebra(rng, f, n, zp) for zp in (0.8, 0.2)]
    algebras = [A for A in algebras if p**A.dim <= 2401]
    assert any(A.is_jordan for A in algebras) and any(not A.is_jordan for A in algebras)
    for A in algebras:
        expected: dict = {}
        for x in itertools.product(range(p), repeat=A.dim):
            expected.setdefault(slow._element_key(A, x), []).append(x)
        index = _element_index(A)
        absent = set()
        for key, xs in expected.items():
            assert index.column(key) == xs
            traces, rank, zero, idempotent = key
            absent |= {
                (traces, rank + 1, zero, idempotent),
                (traces, rank, zero, not idempotent),
                (traces, rank, not zero, idempotent),
                (tuple((t + 1) % p for t in traces), rank, zero, idempotent),
            }
        absent -= expected.keys()
        assert absent
        for key in absent:
            assert index.column(key) == []
        if A.dim == 2 and A.is_jordan:
            sig = classify_dim2(A)
            assert sig.idempotents == sum(len(xs) for key, xs in expected.items() if key[3])
            assert sig.square_zero == sum(len(xs) for key, xs in expected.items() if key[2]) - 1
