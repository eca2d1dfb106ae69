"""Complement-deformation maps, deformed products, graphs, equivalence."""

import json
import time
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    BudgetError,
    DeformationMap,
    Field,
    FieldMismatchError,
    JalgError,
    LeftAction,
    LinearMap,
    MatchedPair,
    QQ,
    RightAction,
    Subspace,
    VerificationError,
    bicross,
    catalog,
    complement_check,
    complement_recover,
    deformation_check,
    deformation_families,
    enumerate_deformations,
    equiv_check,
    factorization_index,
    graph_complement,
    hom_check,
    invariant_signature,
    iso_search,
    load_pair,
    parse_algebra,
    parse_pair,
    r_deform,
    subalgebra_check,
)
from jalg import deformation as deformation_module
from jalg import poly
from jalg.catalog import _read
from jalg.cli import main
from jalg.deformation import _deformation_conditions
from jalg.identities import _sparse
import slow_oracles as slow

F5 = Field(5)


# -- the defining identity -------------------------------------------------------


@pytest.mark.parametrize("key", ["def1", "def2", "def3", "def4", "def5", "def6"])
def test_families_pass_identically(key):
    """Each family satisfies the identity for the symbolic parameter, hence
    for every value at once."""
    r = deformation_families(QQ)[key]
    verdict = r.check()
    assert verdict.ok, verdict.describe()


def test_zero_map_always_passes(defmap_pair):
    r = DeformationMap.zero(defmap_pair)
    assert r.is_zero
    assert r.check().ok


def test_failing_map_reports_basis_pair(defmap_pair):
    r = DeformationMap.from_images(defmap_pair, {"u": {"a": 1}, "v": {"a": 1}})
    verdict = r.check()
    assert not verdict.ok
    assert verdict.failures
    x, y, residual = verdict.failures[0]
    assert x in ("u", "v") and y in ("u", "v")
    text = verdict.describe()
    assert "residual" in text


def test_deformation_check_rejects_foreign_pair(defmap_pair):
    other = catalog("J5-pair")
    r = DeformationMap.zero(defmap_pair)
    with pytest.raises(JalgError):
        deformation_check(other, r)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_a_parametric_pair_is_refused(field):
    """A map and the enumeration need a scalar pair: the matched Q[alpha]
    pair x |> a1 = alpha a0 is refused by both, with one text."""
    from test_pair_oracle import _parametric_pairs

    mp = next(_parametric_pairs(field))
    assert mp.verify().ok
    for call in (lambda: DeformationMap(mp, [[0, 0]]), lambda: enumerate_deformations(mp)):
        with pytest.raises(JalgError, match="^the underlying matched pair must be scalar$"):
            call()


def test_apply_and_describe(defmap_pair):
    r = deformation_families(QQ)["def3"]
    assert r.describe() == "r(u) = a + b, r(v) = (alpha) b"
    # r(u + v) = a + (1 + alpha) b, evaluated at alpha = 2
    img = r.substitute({"alpha": 2}).apply([1, 1])
    assert img == [Fraction(1), Fraction(3)]


def test_substitute_specializes(defmap_pair):
    r = deformation_families(QQ)["def1"]
    r2 = r.substitute({"alpha": Fraction(7)})
    assert r2.params == ()
    assert r2.check().ok
    assert r2.apply([0, 1]) == [Fraction(0), Fraction(7)]


# -- deformed products -----------------------------------------------------------


def test_deformed_table_def3(defmap_pair):
    B = r_deform(defmap_pair, deformation_families(QQ)["def3"])
    assert B.params == ("alpha",)
    # u.u = u, u.v = v, v.v = alpha v
    assert B.format_table() == "u u = u\nu v = v\nv v = (alpha) v"
    # every specialization is a genuine product satisfying the cube law
    assert B.substitute_params({"alpha": Fraction(5)}).is_jordan


def test_deformed_table_def5_recovers_weighted_table(defmap_pair):
    B = r_deform(defmap_pair, deformation_families(QQ)["def5"])
    assert B.substitute_params({"alpha": 0}).table_key() == catalog("V3").table_key()


def test_r_deform_rejects_failing_map(defmap_pair):
    r = DeformationMap.from_images(defmap_pair, {"u": {"a": 1}, "v": {"a": 1}})
    with pytest.raises(VerificationError):
        r_deform(defmap_pair, r)


def test_deformation_layer_refuses_unmatched_pairs(non_jordan_v_jpair):
    """r_deform and enumerate_deformations refuse a pair whose complement
    factor is not Jordan, as bicross does, before any map is looked at."""
    mp = load_pair(non_jordan_v_jpair)
    message = r"^not a matched pair:\nfail\n  jordan-V\[V:0\] residual "
    with pytest.raises(VerificationError, match=message):
        enumerate_deformations(mp)
    with pytest.raises(VerificationError, match=message):
        r_deform(mp, DeformationMap.zero(mp))
    with pytest.raises(VerificationError, match=message):
        bicross(mp)


@pytest.mark.parametrize("command", ["deform-enum", "complements"])
def test_deformation_cli_refuses_unmatched_pairs(command, non_jordan_v_jpair, capsys):
    assert main([command, non_jordan_v_jpair]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failed: not a matched pair:\nfail\n  jordan-V[V:0] residual ")


def test_zero_map_deforms_to_original_factor(defmap_pair):
    B = r_deform(defmap_pair, DeformationMap.zero(defmap_pair))
    assert B.table_key() == defmap_pair.V.table_key()


# -- graphs as complements -------------------------------------------------------


def test_graph_complement_structure(defmap_pair):
    r = deformation_families(QQ)["def1"].substitute({"alpha": Fraction(2)})
    gc = graph_complement(defmap_pair, r)
    E = gc.extension.product
    assert subalgebra_check(E, gc.subspace)
    assert complement_check(E, gc.extension.a_embedding, gc.subspace)
    assert hom_check(gc.witness, gc.deformed, E)
    # graph vectors are r(x) + x
    assert gc.witness.cols[1][:2] == (Fraction(0), Fraction(2))


def test_graph_complement_rejects_parametric(defmap_pair):
    r = deformation_families(QQ)["def1"]
    with pytest.raises(JalgError):
        graph_complement(defmap_pair, r)


def test_recover_roundtrip(defmap_pair):
    r = deformation_families(QQ)["def4"].substitute({"alpha": Fraction(3)})
    gc = graph_complement(defmap_pair, r)
    E = gc.extension.product
    back = complement_recover(
        E, gc.extension.a_embedding, gc.extension.v_embedding, gc.subspace
    )
    assert back.cols == r.cols
    assert back.mp == defmap_pair


def test_recover_the_canonical_complement_is_zero(defmap_pair):
    bp = bicross(defmap_pair)
    back = complement_recover(
        bp.product, bp.a_embedding, bp.v_embedding, bp.v_embedding
    )
    assert back.is_zero


def test_recover_rejects_non_complement(defmap_pair):
    """complement_recover decides bbar with one Factorization(E, A, bbar),
    so a bad bbar is refused in that class's words: A itself is closed,
    and no complement of A."""
    bp = bicross(defmap_pair)
    E = bp.product
    bad = Subspace.span_of_labels(E, ["a", "b"])
    with pytest.raises(VerificationError, match="^subspaces are not complementary$"):
        complement_recover(E, bp.a_embedding, bp.v_embedding, bad)


def test_recover_rejects_an_open_bbar(defmap_pair):
    """span{u + a, v + a} meets A in 0, but (u + a)(v + a) = a + 1/2 v
    leaves it."""
    bp = bicross(defmap_pair)
    E = bp.product
    bad = Subspace(E, [[1, 0, 1, 0], [1, 0, 0, 1]])
    with pytest.raises(VerificationError, match="^second subspace is not a subalgebra$"):
        complement_recover(E, bp.a_embedding, bp.v_embedding, bad)


def test_a_map_deforms_once(defmap_pair):
    """V_r is built once per map: r_deform hands back the same object, and
    the graph complement carries it."""
    r = deformation_families(QQ)["def4"].substitute({"alpha": Fraction(3)})
    B = r_deform(defmap_pair, r)
    assert r_deform(defmap_pair, r) is B
    assert graph_complement(defmap_pair, r).deformed is B
    other = DeformationMap(defmap_pair, r.cols)
    assert r_deform(defmap_pair, other) is not B
    assert r_deform(defmap_pair, other).table_key() == B.table_key()


def _count_algebras(monkeypatch):
    """The list that records every Algebra._of call from now on."""
    built = []
    inner = Algebra._of.__func__

    def counted(cls, *args, **kwargs):
        built.append(args[1])
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Algebra, "_of", classmethod(counted))
    return built


@pytest.mark.parametrize("name,p,maps", [("J7-pair", 7, 637), ("defmap-pair", 5, 20)])
def test_a_check_builds_no_deformed_algebra(monkeypatch, name, p, maps):
    """enumerate_deformations, deformation_check and DeformationMap.check()
    read the verdict alone, so V_r is not built; the first r_deform or
    equiv_check builds it, once per map, and a later one reads it."""
    mp = catalog(name, field=Field(p))
    mp.verify()
    built = _count_algebras(monkeypatch)
    found = enumerate_deformations(mp)
    assert len(found) == maps
    assert all(deformation_check(mp, r).ok and r.check().ok for r in found)
    assert built == []
    r, s = found[0], found[-1]
    identity = LinearMap.identity(mp.A.field, mp.V.dim)
    equiv_check(mp, r, r, identity)
    assert built == [mp.V.basis]
    assert r_deform(mp, r) is r_deform(mp, r)
    r_deform(mp, s)
    equiv_check(mp, r, s, identity)
    assert built == [mp.V.basis] * 2


def _count_coercions(monkeypatch):
    """The list of every value Field.coerce or PolyRing.coerce is given
    from now on."""
    seen = []
    for cls in (Field, poly.PolyRing):
        inner = cls.coerce

        def counted(self, value, inner=inner):
            seen.append(value)
            return inner(self, value)

        monkeypatch.setattr(cls, "coerce", counted)
    return seen


def test_a_map_from_labels_coerces_each_coefficient_once(monkeypatch, defmap_pair):
    """from_images coerces the coefficients it is given, once each (into
    Q[alpha], which coerces into Q), and no column again; the entries it
    fills in are the ring's zeros."""
    seen = _count_coercions(monkeypatch)
    r = DeformationMap.from_images(defmap_pair, {"u": {"a": Fraction(1, 2)}}, params=("alpha",))
    assert seen == [Fraction(1, 2)] * 2
    ring = r.ring
    assert r.cols == ((ring.const(Fraction(1, 2)), ring.zero), (ring.zero, ring.zero))
    seen.clear()
    assert DeformationMap.from_images(defmap_pair, {"v": {"b": 3}}).cols == ((0, 0), (0, 3))
    assert seen == [3]


@pytest.mark.parametrize(
    "spec,params,parsed",
    [("u: alpha a", "alpha", []), ("u: 2 a", None, [Fraction(2)]), ("u: 2 alpha a", "alpha", [Fraction(2)])],
)
def test_a_map_from_the_command_line_coerces_each_entry_once(monkeypatch, spec, params, parsed):
    """--map's combinations are read into the map's ring by the parser
    alone (a number is coerced once, when the field parses it, and lifted
    into a polynomial ring as it is): the map coerces nothing again, and
    the entries no combination names are the ring's zeros."""
    from jalg.cli import _parse_map_flag

    mp = catalog("defmap-pair")
    seen = _count_coercions(monkeypatch)
    names = (params,) if params else ()
    r = _parse_map_flag(mp, spec, names)
    assert seen == parsed
    ring = r.ring
    assert all(type(c) is type(ring.zero) for col in r.cols for c in col)
    assert r.cols[1] == (ring.zero, ring.zero)


def test_a_file_coerces_each_scalar_once(monkeypatch):
    """Each of J7's eight 1/2 entries is coerced once, by Field.parse."""
    seen = _count_coercions(monkeypatch)
    parse_algebra(_read("J7.jalg"))
    assert seen == [Fraction(1, 2)] * 8


# -- equivalence -----------------------------------------------------------------


def test_equiv_check_matches_hom_property():
    mp = catalog("defmap-pair", field=F5)
    maps = enumerate_deformations(mp)
    assert len(maps) == 20
    r = maps[0]
    # sigma = identity relates r to itself
    ident = LinearMap.identity(F5, 2)
    assert equiv_check(mp, r, r, ident)
    # spot-check the equivalence relation against the hom formulation on a
    # fixed invertible sigma for a few map pairs
    sigma = LinearMap(F5, 2, 2, [[1, 0], [1, 1]])
    for r in maps[:5]:
        for s in maps[:5]:
            lhs = equiv_check(mp, r, s, sigma)
            rhs = hom_check(sigma, r_deform(mp, r), r_deform(mp, s))
            assert lhs == rhs


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_equiv_check_on_the_parametric_families_agrees_with_the_oracle(field):
    """equiv_check on the maps of deformation_families, which live in
    F[alpha], reads both V_r's kept sparse forms and sigma's field values;
    on every ordered pair of families and each sigma of a fixed set it
    agrees with the term-by-term oracle (slow_oracles.equiv_holds), and
    both answers occur."""
    families = list(deformation_families(field).values())
    mp = families[0].mp
    sigmas = [
        LinearMap(field, 2, 2, cols)
        for cols in (
            [[1, 0], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]], [[2, 0], [0, 3]],
            [[1, -1], [1, 1]], [[1, 1], [0, 2]], [[1, 0], [0, -1]],
        )
    ]
    seen = set()
    for r in families:
        for s in families:
            for sigma in sigmas:
                got = equiv_check(mp, r, s, sigma)
                assert got == slow.equiv_holds(mp, r, s, sigma)
                seen.add(got)
    assert seen == {True, False}


def test_equiv_check_requires_invertible():
    mp = catalog("defmap-pair", field=F5)
    maps = enumerate_deformations(mp)
    sigma = LinearMap(F5, 2, 2, [[1, 0], [0, 0]])
    with pytest.raises(JalgError):
        equiv_check(mp, maps[0], maps[0], sigma)


def test_equiv_check_refuses_a_sigma_over_another_field():
    """sigma's values are read as they are, so a sigma over Q is refused on
    a pair over F5, as hom_check refuses it."""
    mp = catalog("defmap-pair", field=F5)
    r = enumerate_deformations(mp)[0]
    with pytest.raises(FieldMismatchError, match="^F5 vs Q$"):
        equiv_check(mp, r, r, LinearMap.identity(QQ, 2))


# -- enumeration and classification ----------------------------------------------


def test_enumeration_count_is_twenty():
    mp = catalog("defmap-pair", field=F5)
    maps = enumerate_deformations(mp)
    assert len(maps) == 20
    # deterministic order: repeat gives the same tuple
    assert maps == enumerate_deformations(mp)
    # every survivor passes the identity; every survivor is distinct
    assert len(set(maps)) == 20
    for r in maps:
        assert r.check().ok


def test_enumeration_matches_family_specializations():
    """Over F5 the six families cover all twenty enumerated maps."""
    mp = catalog("defmap-pair", field=F5)
    enumerated = {r.cols for r in enumerate_deformations(mp)}
    fams = deformation_families(F5)
    covered = set()
    for key, fam in fams.items():
        for val in range(5):
            covered.add(fam.substitute({"alpha": val}).cols)
    assert covered == enumerated


def test_enumeration_needs_finite_field(defmap_pair):
    with pytest.raises(JalgError):
        enumerate_deformations(defmap_pair)


def test_enumeration_budget():
    mp = catalog("defmap-pair", field=F5)
    with pytest.raises(BudgetError):
        enumerate_deformations(mp, max_candidates=100)


def test_enumeration_node_budget(monkeypatch):
    """Every map of a zero (3, 4) pair is a deformation: 5^12 of them, so
    the solver's node budget stops the search."""
    A = Algebra.abelian(F5, ("a", "b", "c"))
    V = Algebra.abelian(F5, ("w", "x", "y", "z"))
    mp = MatchedPair(A, V, RightAction.zero(V, A), LeftAction.zero(V, A))
    monkeypatch.setattr(poly, "SOLVE_NODE_BUDGET", 1000)
    with pytest.raises(BudgetError, match="1000 nodes"):
        enumerate_deformations(mp)


def test_factorization_index_report():
    mp = catalog("defmap-pair", field=F5)
    report = factorization_index(mp)
    assert report.index == 4
    assert sorted(len(c) for c in report.classes) == [1, 1, 2, 16]
    assert len(report.maps) == 20
    assert len(report.representatives) == 4
    # classes hold indices into report.maps; the zero map sits alone
    zero_class = [
        c for c in report.classes if any(report.maps[i].is_zero for i in c)
    ]
    assert len(zero_class) == 1 and len(zero_class[0]) == 1
    text = report.describe()
    assert "index = 4" in text
    assert "20" in text
    # witnesses certify membership: sigma relates each member to its
    # class representative
    for ci, cls in enumerate(report.classes):
        rep = report.maps[report.representatives[ci]]
        for i in cls:
            sigma = report.witnesses[i]
            assert equiv_check(mp, report.maps[i], rep, sigma)


@pytest.mark.parametrize("name,p,maps", [("J7-pair", 7, 637), ("defmap-pair", 5, 20)])
def test_factorization_index_reads_each_graph_once(monkeypatch, name, p, maps):
    """One _graph_pass for the generic map of the conditions and one per
    enumerated map; the enumeration's check, r_deform and every
    equiv_check read that pass off the map."""
    calls = []
    inner = deformation_module._graph_pass

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(deformation_module, "_graph_pass", counted)
    report = factorization_index(catalog(name, field=Field(p)))
    assert len(report.maps) == maps
    assert len(calls) == maps + 1


@pytest.mark.parametrize("name,maps", [("J5-pair", 9), ("defmap-pair", 20)])
def test_the_graph_pass_needs_only_the_table_and_dim_a(name, maps):
    """The deformation conditions read E's table in any basis of A followed
    by a complement, not only the pair's own: rebased onto A's units and
    W0 = {x + a_0 : x a unit of V}, which is not a subalgebra, the solutions
    f : W0 -> A are as many as the pair's deformation maps, and each graph
    {w + f(w)} is a subalgebra complementary to A."""
    mp = catalog(name, field=F5)
    bp = bicross(mp)
    E, n_a = bp.product, mp.A.dim
    units = [[F5.one if k == i else F5.zero for k in range(E.dim)] for i in range(E.dim)]
    w0 = [[F5.add(c, units[0][k]) for k, c in enumerate(unit)] for unit in units[n_a:]]
    assert not subalgebra_check(E, Subspace(E, w0))
    basis = units[:n_a] + w0

    def coordinates(v):  # sum x_i a_i + sum y_j v_j = (x_0 - sum y_j) a_0 + ... + sum y_j w_j
        return [F5.sub(v[0], sum(v[n_a:]))] + list(v[1:])

    table = [[coordinates(E.mul_coords(x, y)) for y in basis] for x in basis]
    params, conditions = _deformation_conditions(_sparse(table, F5), n_a, F5)
    solutions = poly.solve_fp(F5, params, conditions)
    assert len(solutions) == len(enumerate_deformations(mp)) == maps
    for flat in solutions:
        # f(w_j) is the j-th block of n_a coordinates, in A's units
        graph = [[F5.add(c, flat[j * n_a + k]) if k < n_a else c for k, c in enumerate(w)] for j, w in enumerate(w0)]
        G = Subspace(E, graph)
        assert subalgebra_check(E, G) and complement_check(E, bp.a_embedding, G)


def test_representative_tables_match_weighted_catalog():
    mp = catalog("defmap-pair", field=F5)
    report = factorization_index(mp)
    targets = {
        "V": mp.V,
        "V1": catalog("V1", field=F5),
        "V2": catalog("V2", field=F5),
        "V3": catalog("V3", field=F5),
    }
    matched = set()
    for rep_index in report.representatives:
        B = r_deform(mp, report.maps[rep_index])
        for name, target in targets.items():
            if iso_search(B, target).is_isomorphic:
                matched.add(name)
    assert matched == {"V", "V1", "V2", "V3"}


def test_factorization_index_over_f11():
    """44 maps in four classes over F11, every witness certified."""
    mp = catalog("defmap-pair", field=Field(11))
    report = factorization_index(mp)
    assert report.index == 4
    assert len(report.maps) == 44
    assert sorted(len(c) for c in report.classes) == [1, 1, 2, 40]
    for ci, cls in enumerate(report.classes):
        rep = report.maps[report.representatives[ci]]
        for i in cls:
            assert equiv_check(mp, report.maps[i], rep, report.witnesses[i])


def test_factorization_index_caps_gl_dimension_before_enumerating(monkeypatch):
    """A (1, 4) pair has only 4 map cells, but its sigma search would walk
    5^16 matrices: BudgetError, raised before any map is enumerated."""
    A = Algebra.abelian(F5, ("a",))
    V = Algebra.abelian(F5, ("w", "x", "y", "z"))
    mp = MatchedPair(A, V, RightAction.zero(V, A), LeftAction.zero(V, A))
    assert len(enumerate_deformations(mp)) == 5**4

    def fail(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("jalg.deformation.enumerate_deformations", fail)
    with pytest.raises(BudgetError, match="capped at dimension 3"):
        factorization_index(mp)


# The canonical pair of the 4-dim E = <e1, e2, e3 idempotent; e1 e4 = 3 e4>
# split along A = span(e1 + e2 + e3) and V = span(e1, e2, e4).
_E4_PAIR = """\
algebra A
  field F5
  dim 1
  basis s0
  mult s0 s0 = s0
end

algebra V
  field F5
  dim 3
  basis e1 e2 e4
  mult e1 e1 = e1
  mult e1 e4 = 3 e4
  mult e2 e2 = e2
end

right e1 . s0 = e1
right e2 . s0 = e2
right e4 . s0 = 3 e4
"""


def test_factorization_index_with_a_three_dim_complement():
    """Seven maps in three classes over F5, every witness certified and
    the representatives told apart by an independent invariant; a walk of
    GL(3, F5) would take minutes, placement by iso_search under ten
    seconds."""
    t0 = time.perf_counter()
    mp = parse_pair(_E4_PAIR)
    report = factorization_index(mp)
    elapsed = time.perf_counter() - t0
    assert len(report.maps) == 7
    assert report.index == 3
    assert report.classes == ((0, 1), (2,), (3, 4, 5, 6))
    for ci, cls in enumerate(report.classes):
        rep = report.maps[report.representatives[ci]]
        for i in cls:
            assert equiv_check(mp, report.maps[i], rep, report.witnesses[i])
    signatures = [invariant_signature(report.deformed[i]) for i in report.representatives]
    assert signatures == [(3, 2, 1), (2, 2, 2), (3, 3, 3)]
    assert elapsed < 10.0, f"classification took {elapsed:.3f}s"


def test_complements_cli_with_a_three_dim_complement(tmp_path, capsys):
    path = tmp_path / "e4.jpair"
    path.write_text(_E4_PAIR)
    assert main(["complements", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == 3
