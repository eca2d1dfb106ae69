"""Structure maps of two-sided products and isomorphism search."""

import collections
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import (
    Algebra,
    DimensionError,
    Field,
    FieldMismatchError,
    JalgError,
    LinearMap,
    MorphismQuadruple,
    PolyRing,
    QQ,
    bicross,
    catalog,
    classify_dim2,
    factorization_index,
    hom_check,
    invariant_signature,
    iso_search,
    map_to_quadruple,
    parse_pair,
    quadruple_check,
    quadruple_to_map,
    write_pair,
)
from jalg import morphism
from jalg.catalog import PAIR_NAMES
from jalg.cli import main
from jalg.morphism import GL_SEARCH_MAX_DIM, IsoVerdict

F5 = Field(5)
F7 = Field(7)


# -- homomorphism predicate -----------------------------------------------------


def test_hom_check_identity(j5):
    assert hom_check(LinearMap.identity(j5.field, j5.dim), j5, j5)


def test_hom_check_rejects_non_hom(j5):
    f = LinearMap.from_images(
        j5, j5, {"a": {"b": 1}, "b": {"a": 1}, "u": {"u": 1}, "v": {"v": 1}}
    )
    # swapping a and b breaks a.v = v (b.v = 0)
    assert not hom_check(f, j5, j5)


def test_hom_check_refuses_mixed_fields():
    """The F5 identity between V1 over F5 and V1 over F7, and a Q map
    between F5 algebras, are refused rather than decided in one field's
    arithmetic."""
    v1_f5, v1_f7 = catalog("V1", field=F5), catalog("V1", field=F7)
    with pytest.raises(FieldMismatchError, match="^F5 vs F7$"):
        hom_check(LinearMap.identity(F5, 2), v1_f5, v1_f7)
    with pytest.raises(FieldMismatchError, match="^F5 vs Q$"):
        hom_check(LinearMap.identity(QQ, 2), v1_f5, v1_f5)
    assert hom_check(LinearMap.identity(F5, 2), v1_f5, v1_f5)


# -- quadruple form of a product endomorphism ------------------------------------


def test_identity_quadruple_passes():
    mp = catalog("J17-pair")
    E = bicross(mp).product
    psi = LinearMap.identity(E.field, E.dim)
    quad = map_to_quadruple(psi, mp, mp)
    verdict = quadruple_check(quad)
    assert verdict.ok
    assert verdict.violated == ()


def test_quadruple_roundtrip():
    mp = catalog("J17-pair")
    E = bicross(mp).product
    cols = [
        [Fraction(i + j) for i in range(E.dim)] for j in range(E.dim)
    ]
    psi = LinearMap(E.field, E.dim, E.dim, cols)
    quad = map_to_quadruple(psi, mp, mp)
    back = quadruple_to_map(quad)
    assert back.cols == psi.cols


def test_quadruple_violation_named():
    mp = catalog("defmap-pair")
    E = bicross(mp).product
    # scaling only the first-factor block breaks multiplicativity on A
    psi = LinearMap.from_images(
        E, E, {"a": {"a": 2}, "b": {"b": 2}, "u": {"u": 1}, "v": {"v": 1}}
    )
    quad = map_to_quadruple(psi, mp, mp)
    verdict = quadruple_check(quad)
    assert not verdict.ok
    assert "C1" in verdict.violated
    assert not hom_check(psi, E, E)


def test_quadruple_agrees_with_hom_on_samples():
    mp = catalog("J5-pair")
    E = bicross(mp).product
    for k, cols in enumerate(
        [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]],
        ]
    ):
        psi = LinearMap(QQ, 4, 4, [[Fraction(c) for c in col] for col in cols])
        assert hom_check(psi, E, E) == quadruple_check(
            map_to_quadruple(psi, mp, mp)
        ).ok, f"sample {k}"


def _pair(name, f):
    return catalog(name, field=None if f is QQ else f)


def _random_map(rng, f, n, m):
    return LinearMap(f, n, m, [[rng.randrange(-3, 4) for _ in range(m)] for _ in range(n)])


def _sliced(psi, src, tgt):
    """r, s, t and q cut from psi's columns, each built as its own map."""
    na, nv, ma, mv = src.A.dim, src.V.dim, tgt.A.dim, tgt.V.dim
    f, cols = psi.field, psi.cols
    return (
        LinearMap(f, na, ma, [col[:ma] for col in cols[:na]]),
        LinearMap(f, na, mv, [col[ma:] for col in cols[:na]]),
        LinearMap(f, nv, ma, [col[:ma] for col in cols[na:]]),
        LinearMap(f, nv, mv, [col[ma:] for col in cols[na:]]),
    )


@pytest.mark.parametrize("f", [QQ, F7], ids=repr)
def test_quadruple_blocks_are_the_sliced_maps(f):
    """Between every two catalog pairs, a quadruple holds psi itself, and
    its blocks are the four maps cut from psi's columns; the public
    constructor joins those blocks back into psi."""
    rng = random.Random(23 + f.characteristic)
    for src_name, tgt_name in itertools.product(PAIR_NAMES, repeat=2):
        src, tgt = _pair(src_name, f), _pair(tgt_name, f)
        n, m = src.A.dim + src.V.dim, tgt.A.dim + tgt.V.dim
        for psi in (_random_map(rng, f, n, m), LinearMap.zero(f, n, m)):
            qd = map_to_quadruple(psi, src, tgt)
            blocks = _sliced(psi, src, tgt)
            assert (qd.r, qd.s, qd.t, qd.q) == blocks, (src_name, tgt_name)
            assert quadruple_to_map(qd) is psi
            joined = MorphismQuadruple(src, tgt, *blocks)
            assert (joined.r, joined.s, joined.t, joined.q) == blocks
            assert joined == qd and joined.psi == psi


def test_quadruple_shape_errors():
    """Between two (3, 2) pairs the four blocks have four different shapes;
    a block of the wrong shape, or a map of the wrong size, is refused when
    the quadruple is made."""
    src, tgt = catalog("J7-pair"), catalog("J17-pair")
    r, s, t, q = _sliced(LinearMap.zero(QQ, 5, 5), src, tgt)
    for blocks in ((s, r, t, q), (r, s, q, t), (t, s, r, q), (r, LinearMap.zero(QQ, 3, 3), t, q)):
        with pytest.raises(DimensionError, match="^quadruple shapes do not match the matched pairs$"):
            MorphismQuadruple(src, tgt, *blocks)
    for n, m in ((4, 5), (5, 4), (5, 6)):
        with pytest.raises(DimensionError, match="^map shape does not match the product spaces$"):
            map_to_quadruple(LinearMap.zero(QQ, n, m), src, tgt)


def test_quadruple_refuses_mixed_fields():
    """An F5 map between J5-pair over F5 and J5-pair over F7 is refused; the
    C6 failure it used to report came from F5 arithmetic on F7 entries."""
    mp5, mp7 = catalog("J5-pair", field=F5), catalog("J5-pair", field=F7)
    identity = LinearMap.identity(F5, 4)
    with pytest.raises(FieldMismatchError, match="^F5 vs F7$"):
        map_to_quadruple(identity, mp5, mp7)
    with pytest.raises(FieldMismatchError, match="^F5 vs Q$"):
        map_to_quadruple(LinearMap.identity(QQ, 4), mp5, mp5)
    blocks = _sliced(identity, mp5, mp5)
    with pytest.raises(FieldMismatchError, match="^F5 vs F7$"):
        MorphismQuadruple(mp5, mp7, *blocks)
    with pytest.raises(FieldMismatchError, match="^F7 vs F5$"):
        MorphismQuadruple(mp7, mp7, *blocks)
    assert quadruple_check(map_to_quadruple(identity, mp5, mp5)).ok


def test_map_to_quadruple_and_check_build_no_linear_map(monkeypatch):
    """The quadruple wraps psi as it is, and quadruple_check reads psi's
    columns: neither makes a LinearMap.  Reading a block makes one."""
    mp = catalog("J17-pair", field=F7)
    n = mp.A.dim + mp.V.dim
    psi = LinearMap.identity(F7, n)
    built = []
    inner = LinearMap._set

    def counted(self, *args):
        built.append(args)
        inner(self, *args)

    monkeypatch.setattr(LinearMap, "_set", counted)
    qd = map_to_quadruple(psi, mp, mp)
    assert quadruple_check(qd).ok
    assert built == []
    assert qd.r == LinearMap.identity(F7, mp.A.dim)
    assert len(built) == 2  # the block and the identity it is compared with


# -- exact invariants ------------------------------------------------------------


def test_invariant_signature_values():
    C = Algebra.from_products(QQ, ("u", "v"), {("u", "u"): {"v": 1}})
    D = Algebra.from_products(QQ, ("u", "v"), {("u", "u"): {"u": 1, "v": 1}})
    assert invariant_signature(C) == (1, 0, 0)
    assert invariant_signature(D) == (1, 1, 1)


def test_invariant_signature_rejects_parametric():
    alpha = PolyRing(QQ, ("alpha",)).var("alpha")
    P = Algebra.from_products(
        QQ, ("u", "v"), {("u", "u"): {"u": 1}, ("u", "v"): {"v": alpha}}, params=("alpha",)
    )
    with pytest.raises(JalgError, match="scalar algebras only"):
        invariant_signature(P)


def test_dim2_signatures_separate_the_catalog_tables():
    V = catalog("defmap-pair", field=F5).V
    V1 = catalog("V1", field=F5)
    V2 = catalog("V2", field=F5)
    V3 = catalog("V3", field=F5)
    sigs = {
        "V": classify_dim2(V).as_tuple(),
        "V1": classify_dim2(V1).as_tuple(),
        "V2": classify_dim2(V2).as_tuple(),
        "V3": classify_dim2(V3).as_tuple(),
    }
    assert sigs == {
        "V": (1, 1, 1, 2, 4),
        "V1": (2, 2, 2, 4, 0),
        "V2": (2, 1, 1, 2, 4),
        "V3": (2, 1, 0, 6, 4),
    }
    # all four signatures differ pairwise, so no two tables are isomorphic
    assert len(set(sigs.values())) == 4


@pytest.mark.parametrize("f", [F5, Field(13), Field(31)], ids=str)
@pytest.mark.parametrize("name", ["V1", "V2", "V3", "V-abelian-2", "defmap-pair"])
def test_classify_dim2_counts_match_direct_scan(name, f):
    """The counts read off the element buckets, whose keys are scaled by
    c^2 along each line, against a recount with mul_coords: solutions of
    x.x = x (zero included) and nonzero solutions of x.x = 0."""
    V = catalog(name, field=f)
    if name == "defmap-pair":
        V = V.V
    sig = classify_dim2(V)
    idem = 0
    sq0 = 0
    for x in itertools.product(range(f.characteristic), repeat=2):
        xx = tuple(V.mul_coords(x, x))
        if xx == x:
            idem += 1
        if xx == (0, 0) and any(x):
            sq0 += 1
    assert (sig.idempotents, sig.square_zero) == (idem, sq0)
    if (name, f) == ("defmap-pair", F5):
        assert (idem, sq0) == (2, 4)


def test_classify_dim2_rejects_wrong_dim(j5):
    with pytest.raises(JalgError):
        classify_dim2(j5)


# -- isomorphism search ----------------------------------------------------------


def test_iso_exhaustive_f5_non_isomorphic():
    V = catalog("defmap-pair", field=F5).V
    V3 = catalog("V3", field=F5)
    verdict = iso_search(V, V3)
    assert verdict.kind == "non-isomorphic"
    assert not verdict.is_isomorphic
    assert verdict.certificate == "exhausted GL over the field"


def test_iso_exhaustive_f5_finds_witness():
    V3 = catalog("V3", field=F5)
    other = V3.relabel(["p", "q"])
    verdict = iso_search(V3, other)
    assert verdict.kind == "isomorphic"
    assert verdict.is_isomorphic
    assert hom_check(verdict.witness, V3, other)
    assert verdict.witness.is_invertible()


def test_iso_q_bounded_search_finds_witness():
    A = Algebra.from_products(
        QQ, ("u", "v"), {("u", "u"): {"u": 1}, ("u", "v"): {"v": Fraction(1, 2)}}
    )
    B = A.relabel(["p", "q"])
    verdict = iso_search(A, B)
    assert verdict.kind == "isomorphic"
    assert hom_check(verdict.witness, A, B)
    assert verdict.witness.is_invertible()


def test_iso_q_invariants_separate():
    C = Algebra.from_products(QQ, ("u", "v"), {("u", "u"): {"v": 1}})
    D = Algebra.from_products(QQ, ("u", "v"), {("u", "u"): {"u": 1, "v": 1}})
    verdict = iso_search(C, D)
    assert verdict.kind == "non-isomorphic"
    assert "differ" in verdict.certificate


def test_iso_q_unknown_is_honest():
    # equal invariants, no bounded witness: the search must not guess
    A = Algebra.from_products(
        QQ, ("u", "v"), {("u", "u"): {"u": 1}, ("u", "v"): {"v": Fraction(1, 2)}}
    )
    B = Algebra.from_products(
        QQ, ("u", "v"), {("u", "u"): {"u": 1}, ("u", "v"): {"v": Fraction(1, 3)}}
    )
    verdict = iso_search(A, B)
    assert verdict.kind == "unknown"
    assert not verdict.is_isomorphic
    assert "height" in verdict.note


def test_iso_dimension_mismatch(j5):
    A1 = Algebra.abelian(QQ, ("x",))
    verdict = iso_search(j5, A1)
    assert verdict.kind == "non-isomorphic"
    assert "dim" in verdict.certificate


def test_iso_field_mismatch(j5):
    j5f = j5.to_field(F5)
    verdict = iso_search(j5, j5f)
    assert verdict.kind == "non-isomorphic"
    assert "field" in verdict.certificate


def test_iso_rejects_parametric():
    R = PolyRing(QQ, ("alpha",))
    P = Algebra.from_products(
        QQ, ("u",), {("u", "u"): {"u": R.var("alpha")}}, params=("alpha",)
    )
    with pytest.raises(JalgError):
        iso_search(P, P)


# (product span, trace ranks) of the catalog algebras past the exhaustive
# search: J5 and defmap-J have dim 4, J7 and J17 dim 5
SIGNATURES_ABOVE_THE_SEARCH = {
    5: {"J5": (4, 1, 2), "defmap-J": (4, 3, 3), "J7": (5, 0, 3), "J17": (5, 2, 2)},
    7: {"J5": (4, 2, 2), "defmap-J": (4, 3, 3), "J7": (5, 4, 4), "J17": (5, 2, 1)},
}


@pytest.mark.parametrize("p", [5, 7])
def test_iso_fp_above_the_search_answers_by_invariants(p, capsys):
    """Over F_p above dim 3 no matrix is scanned: every equal-dimension
    pair is non-isomorphic by invariants (exit 1) or unknown (exit 3),
    never a BudgetError."""
    assert GL_SEARCH_MAX_DIM == 3
    sigs = SIGNATURES_ABOVE_THE_SEARCH[p]
    f = Field(p)
    codes = []
    for x, y in itertools.product(sigs, repeat=2):
        A, B = catalog(x, field=f), catalog(y, field=f)
        if A.dim != B.dim:
            continue
        verdict = iso_search(A, B)
        if x == y:
            note = (
                f"invariants agree; no witness search over F{p} at dimension {A.dim} "
                "(the exhaustive search covers dim <= 3)"
            )
            assert verdict == IsoVerdict("unknown", note=note)
            expected, code = f"verdict: unknown\n{note}\n", 3
        else:
            cert = f"(product span, trace ranks) differ: {sigs[x]} vs {sigs[y]}"
            assert verdict == IsoVerdict("non-isomorphic", certificate=cert)
            expected, code = f"verdict: non-isomorphic\ncertificate: {cert}\n", 1
        assert main(["iso", f"catalog:{x}", f"catalog:{y}", "--field", f"F{p}"]) == code
        assert capsys.readouterr() == (expected, "")
        codes.append(code)
    assert sorted(codes) == [1] * 4 + [3] * 4


def test_element_buckets_are_computed_once_per_algebra():
    """An algebra's element index (its line invariants, its basis keys and
    the candidate columns read from them) is built on the first search
    that reads it and kept on that Algebra instance: a second search reads
    the same index and the same columns, and an equal table gets an index
    of its own."""
    B = Algebra.from_products(F5, ("u", "v"), {("u", "u"): {"u": 1}})
    V1 = catalog("V1", field=F5)
    A = Algebra(F5, V1.basis, V1.sc)
    assert B._element_index is None and A._element_index is None
    first = iso_search(A, B)
    index = B._element_index
    assert index is not None and A._element_index is not None
    lines = index.lines()
    assert 1 + 4 * (len(lines) - 1) == 25  # the zero vector, and p - 1 elements per line
    columns = dict(index._columns)
    assert columns
    again = iso_search(A, B)
    assert B._element_index is index and again == first
    assert index.lines() is lines
    assert index._columns.keys() == columns.keys()
    assert all(index._columns[key] is col for key, col in columns.items())
    same_table = Algebra(F5, B.basis, B.sc)
    assert same_table == B and same_table._element_index is None
    assert iso_search(A, same_table) == first
    assert same_table._element_index is not index


@pytest.mark.parametrize(
    ("p", "products", "lines"),
    [
        (13, {("u", "u"): {"u": 1}, ("v", "v"): {"v": 1}}, 15),
        (5, {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}, ("w", "w"): {"v": 2}}, 32),
    ],
    ids=["planar-F13", "dim3-F5"],
)
def test_element_buckets_build_one_operator_per_line(monkeypatch, p, products, lines):
    """A sweep builds L_x for the zero vector and once per line through the
    origin, (p^n - 1)/(p - 1) + 1 times; a second search against the same
    target builds none for it."""
    calls = []
    build = morphism._operator_invariants

    def counted(A, x):
        calls.append(A)
        return build(A, x)

    monkeypatch.setattr(morphism, "_operator_invariants", counted)
    f = Field(p)
    basis = tuple(sorted({label for pair in products for label in pair}))
    B = Algebra.from_products(f, basis, products)
    first = iso_search(Algebra(f, B.basis, B.sc), B)
    assert first.is_isomorphic
    assert sum(A is B for A in calls) == lines == (p ** B.dim - 1) // (p - 1) + 1
    calls.clear()
    assert iso_search(Algebra(f, B.basis, B.sc), B) == first
    assert calls and not any(A is B for A in calls)


def test_factorization_index_builds_each_operator_once(monkeypatch):
    """factorization_index on defmap-pair over F7 (read from its file form,
    so no object is shared with the catalog) searches every deformed table
    V_r as a source, which reads its basis keys, and the class
    representatives also as targets, which read their lines.  Each table
    builds L_x at most once per element: a representative once per line
    (its basis vectors are lines), every other table once per basis
    vector."""
    mp = parse_pair(write_pair(catalog("defmap-pair", field=F7)))
    calls = []
    build = morphism._operator_invariants

    def counted(A, x):
        calls.append((id(A), tuple(x)))
        return build(A, x)

    monkeypatch.setattr(morphism, "_operator_invariants", counted)
    report = factorization_index(mp)
    assert sorted(map(len, report.classes)) == [1, 1, 2, 24]
    assert len(calls) == len(set(calls))
    n = mp.V.dim
    lines = (7**n - 1) // 6 + 1
    built = collections.Counter(table for table, _ in calls)
    reps = {id(report.deformed[i]) for i in report.representatives}
    assert set(built) == {id(T) for T in report.deformed}
    assert all(built[table] == (lines if table in reps else n) for table in built)


def test_iso_has_no_mode_option(capsys):
    """The field and the dimension choose the search: --mode is an
    argparse error (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["iso", "catalog:J5", "catalog:J5", "--mode", "auto"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode auto" in capsys.readouterr().err


small_f5_tables = st.lists(
    st.integers(min_value=0, max_value=4), min_size=6, max_size=6
)


@settings(deadline=None, derandomize=True, max_examples=25)
@given(small_f5_tables, small_f5_tables)
def test_iso_search_symmetric_f5(t1, t2):
    """Exhaustive search gives mirror verdicts when swapping the inputs."""

    def build(t):
        return Algebra.from_products(
            F5,
            ("u", "v"),
            {
                ("u", "u"): {"u": t[0], "v": t[1]},
                ("u", "v"): {"u": t[2], "v": t[3]},
                ("v", "v"): {"u": t[4], "v": t[5]},
            },
        )

    A, B = build(t1), build(t2)
    ab = iso_search(A, B)
    ba = iso_search(B, A)
    assert ab.kind == ba.kind
    if ab.kind == "isomorphic":
        assert hom_check(ab.witness, A, B)
        assert hom_check(ba.witness, B, A)
