"""Each input form has one reader in jalg.algebra: a basis label is read by
_label_index, a combination {label: coefficient} by _label_coords (each
coefficient coerced once), and a coordinate vector by _vector (its length
checked, its entries coerced).  The public entry points that take these
forms are checked here against the coercing constructors on the same data,
entry by entry and type by type, and for the one text of each refusal."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from jalg import (
    QQ,
    Algebra,
    DeformationMap,
    DimensionError,
    Factorization,
    Field,
    JalgError,
    LeftAction,
    LinearMap,
    RightAction,
    Subspace,
    catalog,
)
from jalg.catalog import PAIR_NAMES
from jalg.poly import PolyRing
from test_built_tables import _raw_entry, _typed

F5 = Field(5)
RINGS = {"Q": (QQ, ()), "F5": (F5, ()), "F7": (Field(7), ()), "Q[t]": (QQ, ("t",))}


def _ring(name):
    f, params = RINGS[name]
    return f, params, PolyRing(f, params) if params else f


def _combo(rng, ring, labels):
    """{label: coefficient} on a random subset of labels, each coefficient
    as a caller may write it (_raw_entry: bools, unreduced ints,
    Fractions, polynomials over F[t])."""
    return {lab: _raw_entry(rng, ring) for lab in labels if rng.random() < 0.7}


def _dense(combo, labels):
    """The combination as the raw coordinate list a coercing constructor
    takes: absent labels are 0."""
    return [combo.get(lab, 0) for lab in labels]


def _typed_value(value):
    """value with the type of each scalar beside it, lists and tuples alike."""
    if isinstance(value, (list, tuple)):
        return [_typed_value(v) for v in value]
    return (type(value), value)


def _labels(prefix, n):
    return tuple(f"{prefix}{k}" for k in range(n))


@pytest.mark.parametrize("name", RINGS)
def test_from_products_is_the_coercing_constructor(name):
    """Algebra.from_products on {(label, label): combination} equals
    Algebra(...) on the dense table: values, types and sparse form."""
    f, params, ring = _ring(name)
    rng = random.Random("from-products-" + name)
    for n in range(4):
        basis = _labels("e", n)
        for _ in range(10):
            products, sc = {}, [[[0] * n for _ in range(n)] for _ in range(n)]
            for i, j in combinations_with_replacement(range(n), 2):
                if rng.random() < 0.6:
                    combo = _combo(rng, ring, basis)
                    key = (basis[i], basis[j]) if rng.random() < 0.5 else (basis[j], basis[i])
                    products[key] = combo
                    sc[i][j] = sc[j][i] = _dense(combo, basis)
            got = Algebra.from_products(f, basis, products, params=params)
            want = Algebra(f, basis, sc, params=params)
            assert got == want and got.basis == want.basis
            assert _typed_value(got.sc) == _typed_value(want.sc)
            assert _typed(got.sparse_sc()) == _typed(want.sparse_sc())


@pytest.mark.parametrize("name", ["Q", "F5", "F7"])
def test_linear_map_from_images_is_the_coercing_constructor(name):
    f, _, _ = _ring(name)
    rng = random.Random("linear-map-" + name)
    for m, n in [(0, 2), (1, 1), (2, 3), (3, 2), (4, 4)]:
        S, T = Algebra.abelian(f, _labels("s", m)), Algebra.abelian(f, _labels("t", n))
        for _ in range(10):
            images = {lab: _combo(rng, f, T.basis) for lab in S.basis if rng.random() < 0.7}
            cols = [_dense(images.get(lab, {}), T.basis) for lab in S.basis]
            got = LinearMap.from_images(S, T, images)
            want = LinearMap(f, m, n, cols)
            assert got == want
            assert _typed_value(got.cols) == _typed_value(want.cols)


@pytest.mark.parametrize("cls", [RightAction, LeftAction])
@pytest.mark.parametrize("name", RINGS)
def test_action_from_images_is_the_coercing_constructor(name, cls):
    """from_images and zero, against the coercing constructor on the dense
    tensor; the values live in V for a right action and in A for a left."""
    f, params, ring = _ring(name)
    rng = random.Random(f"action-{cls.__name__}-{name}")
    for nv, na in [(1, 1), (2, 2), (2, 3), (3, 1)]:
        V = Algebra.from_products(f, _labels("x", nv), {}, params=params)
        A = Algebra.from_products(f, _labels("a", na), {}, params=params)
        out = V if cls is RightAction else A
        zeros = [[[0] * out.dim for _ in A.basis] for _ in V.basis]
        cases = [({}, zeros)]
        for _ in range(10):
            images = {
                (x, a): _combo(rng, ring, out.basis)
                for x in V.basis
                for a in A.basis
                if rng.random() < 0.6
            }
            tensor = [[_dense(images.get((x, a), {}), out.basis) for a in A.basis] for x in V.basis]
            cases.append((images, tensor))
        for images, tensor in cases:
            got = cls.from_images(V, A, images)
            want = cls(V, A, tensor)
            assert got == want
            assert _typed_value(got.tensor) == _typed_value(want.tensor)
        zero = cls.zero(V, A)
        assert _typed_value(zero.tensor) == _typed_value(cls(V, A, zeros).tensor)


@pytest.mark.parametrize("name", RINGS)
def test_deformation_map_from_images_is_the_coercing_constructor(name):
    """On every catalog pair; over Q[t] the map carries the parameter t."""
    f, params, ring = _ring(name)
    rng = random.Random("deformation-map-" + name)
    for pair_name in PAIR_NAMES:
        mp = catalog(pair_name, field=None if f is QQ else f)
        A, V = mp.A.basis, mp.V.basis
        zero_cols = [[0] * len(A) for _ in V]
        assert _typed_value(DeformationMap.zero(mp).cols) == _typed_value(
            DeformationMap(mp, zero_cols).cols
        )
        for _ in range(10):
            images = {x: _combo(rng, ring, A) for x in V if rng.random() < 0.7}
            cols = [_dense(images.get(x, {}), A) for x in V]
            got = DeformationMap.from_images(mp, images, params)
            want = DeformationMap(mp, cols, params)
            assert got == want
            assert _typed_value(got.cols) == _typed_value(want.cols)


def _label_entry_points():
    """A call with an unknown label 'z' in each position of each entry
    point that takes labels, named by the position."""
    j5 = catalog("J5")
    mp = catalog("defmap-pair")  # A = a, b; V = u, v
    A, V = mp.A, mp.V
    calls = [
        ("from_products pair key (first)", lambda: Algebra.from_products(QQ, "ab", {("z", "a"): {}})),
        ("from_products pair key (second)", lambda: Algebra.from_products(QQ, "ab", {("a", "z"): {}})),
        ("from_products combination key", lambda: Algebra.from_products(QQ, "ab", {("a", "b"): {"z": 1}})),
        ("LinearMap.from_images images key", lambda: LinearMap.from_images(j5, j5, {"z": {"a": 1}})),
        ("LinearMap.from_images combination key", lambda: LinearMap.from_images(j5, j5, {"a": {"z": 1}})),
        ("DeformationMap.from_images images key", lambda: DeformationMap.from_images(mp, {"z": {"a": 1}})),
        ("DeformationMap.from_images combination key", lambda: DeformationMap.from_images(mp, {"u": {"z": 1}})),
        ("Algebra.basis_element", lambda: j5.basis_element("z")),
        ("Subspace.span_of_labels", lambda: Subspace.span_of_labels(j5, ["a", "z"])),
    ]
    for cls in (RightAction, LeftAction):
        value = "u" if cls is RightAction else "a"
        calls += [
            (f"{cls.__name__}.from_images pair key (V)", lambda c=cls: c.from_images(V, A, {("z", "a"): {}})),
            (f"{cls.__name__}.from_images pair key (A)", lambda c=cls: c.from_images(V, A, {("u", "z"): {}})),
            (
                f"{cls.__name__}.from_images combination key",
                lambda c=cls, v=value: c.from_images(V, A, {("u", "a"): {v: 1, "z": 1}}),
            ),
        ]
    return [pytest.param(call, id=position) for position, call in calls]


@pytest.mark.parametrize("call", _label_entry_points())
def test_unknown_labels_are_refused_with_one_text(call):
    with pytest.raises(JalgError) as err:
        call()
    assert type(err.value) is JalgError
    assert str(err.value) == "unknown basis label 'z'"


def _vector_readers():
    """(name, dimension, call) for each public method that takes a
    coordinate vector, over F5: RightAction.apply and LeftAction.apply
    once per argument, with a fixed coerced vector in the other."""
    mp = catalog("J7-pair", F5)  # both actions nonzero
    j5 = catalog("J5", F5)
    r = DeformationMap(mp, [[1, 2, 0], [3, 0, 4]])
    f = LinearMap(F5, 3, 2, [[1, 2], [0, 3], [4, 1]])
    span = Subspace.span_of_labels(j5, ["a", "b"])
    fact = Factorization(j5, span, Subspace.span_of_labels(j5, ["u", "v"]))
    x0, a0 = [1, 2], [3, 0, 1]
    readers = [
        ("Algebra.element", j5.dim, lambda v: j5.element(v).coords),
        ("LinearMap.apply", f.source_dim, f.apply),
        ("DeformationMap.apply", mp.V.dim, r.apply),
        ("Subspace.coordinates", j5.dim, span.coordinates),
        ("Factorization.split", j5.dim, fact.split),
    ]
    for action in (mp.right, mp.left):
        name = type(action).__name__
        readers += [
            (f"{name}.apply x", mp.V.dim, lambda v, act=action: act.apply(v, a0)),
            (f"{name}.apply a", mp.A.dim, lambda v, act=action: act.apply(x0, v)),
        ]
    return [pytest.param(*reader, id=reader[0]) for reader in readers]


@pytest.mark.parametrize("reader,dim,call", _vector_readers())
def test_vector_readers_coerce_and_check_the_length(reader, dim, call):
    """Raw entries (a Fraction with a denominator prime to 5, unreduced
    and negative ints, bools) give what the same vector coerced first
    gives, value and type; a short and a long vector are refused."""
    rng = random.Random("vectors-" + reader)
    raws = [Fraction(1, 2), 7, -3, True, Fraction(-4, 3), 12, 0, Fraction(10, 3)]
    vectors = [[rng.choice(raws) for _ in range(dim)] for _ in range(20)]
    # one vector inside span{a, b} of J5, for Subspace.coordinates
    vectors.append([Fraction(1, 2), 7, 5, Fraction(-10, 3)][:dim] + [0] * (dim - 4))
    for raw in vectors:
        coerced = [F5.coerce(c) for c in raw]
        assert _typed_value(call(raw)) == _typed_value(call(coerced))
        assert _typed_value(call(tuple(raw))) == _typed_value(call(coerced))
    for bad in ([1] * (dim - 1), [1] * (dim + 1)):
        with pytest.raises(DimensionError, match=rf"^expected {dim} coordinates, got {len(bad)}$"):
            call(bad)


def test_subspace_rows_and_coordinates_refuse_a_wrong_length_with_one_text(j5):
    """A short row, given to the coercing constructor or to _of, and a short
    vector given to coordinates() are refused with _vector's text."""
    span = Subspace.span_of_labels(j5, ["a", "b"])
    for refuse in (
        lambda: Subspace(j5, [[1, 0, 0]]),
        lambda: Subspace._of(j5, [(j5.field.one,) * 3]),
        lambda: span.coordinates([1, 0, 0]),
    ):
        with pytest.raises(DimensionError, match=r"^expected 4 coordinates, got 3$"):
            refuse()


def test_vector_readers_compute_in_the_field():
    """1/2 is 3 in F5: a map and an action read it so, not as a Fraction."""
    assert LinearMap(F5, 2, 2, [[1, 0], [0, 1]]).apply([Fraction(1, 2), 7]) == [3, 2]
    right = catalog("defmap-pair", F5).right  # v <| b = 3 v
    got = right.apply([0, 1], [0, Fraction(1, 2)])
    assert got == [0, 4] and all(type(c) is int for c in got)
