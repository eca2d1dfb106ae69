"""Action laws, pair axioms, the two-sided product, factorizations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import (
    Algebra,
    BudgetError,
    Field,
    JalgError,
    LeftAction,
    LinearMap,
    MatchedPair,
    QQ,
    RightAction,
    Subspace,
    VerificationError,
    bicross,
    bicross_table,
    canonical_pair,
    catalog,
    enumerate_abelian_pairs,
    Factorization,
    identities,
    load_pair,
    pair_from_nilpotent,
    semidirect_left,
    semidirect_right,
    split_mono_decompose,
    write_pair,
)
from jalg import linalg, poly
from jalg.cli import main
from jalg.matched_pair import _Action
from conftest import NON_JORDAN_V_PAIR
import slow_oracles as oracle
from slow_oracles import express, express_projection

F5 = Field(5)

PAIR_NAMES = ("defmap-pair", "J5-pair", "J7-pair", "J17-pair")


# -- individual action laws ---------------------------------------------------


def test_right_action_law_failure_and_control():
    # base algebra with a single nilpotent-ish product a.a = b
    A = Algebra.from_products(QQ, ("a", "b"), {("a", "a"): {"b": 1}})
    V = Algebra.abelian(QQ, ("x", "y"))
    # a swaps the plane, b projects onto the first axis: the two operators
    # do not commute and the law (x <| a^2) <| a = (x <| a) <| a^2 breaks
    bad = RightAction.from_images(
        V, A, {("x", "a"): {"y": 1}, ("y", "a"): {"x": 1}, ("x", "b"): {"x": 1}}
    )
    verdict = bad.check()
    assert not verdict.ok
    assert verdict.failed_axioms() == ("right-action",)
    # replacing the projection with the identity restores commutation
    good = RightAction.from_images(
        V,
        A,
        {
            ("x", "a"): {"y": 1},
            ("y", "a"): {"x": 1},
            ("x", "b"): {"x": 1},
            ("y", "b"): {"y": 1},
        },
    )
    assert good.check().ok


def test_left_action_law():
    mp = catalog("J17-pair")
    assert mp.left.check().ok
    assert mp.right.check().ok
    assert not mp.left.is_zero()


def test_action_endpoint_validation():
    A = Algebra.abelian(QQ, ("a",))
    V = Algebra.abelian(QQ, ("x",))
    with pytest.raises(JalgError):
        RightAction(V, A, [[[1, 0]]])  # wrong output dimension


def test_action_from_images_unknown_label():
    A = Algebra.abelian(QQ, ("a",))
    V = Algebra.abelian(QQ, ("x",))
    with pytest.raises(JalgError):
        RightAction.from_images(V, A, {("x", "z"): {"x": 1}})


# -- pair axioms ---------------------------------------------------------------


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_catalog_pairs_verify(name):
    mp = catalog(name)
    verdict = mp.verify()
    assert verdict.ok, verdict.describe()
    assert verdict.checked == (
        "jordan-A",
        "jordan-V",
        "right-action",
        "left-action",
        "MP1",
        "MP2",
        "MP3",
        "MP4",
        "MP5",
        "MP6",
    )
    assert mp.is_matched


def test_weight_one_variant_fails_exactly_mp3():
    # raising both action weights from 1/2 to 1 breaks exactly one axiom
    A = Algebra.from_products(
        QQ, ("a", "b"), {("a", "a"): {"a": 1}, ("b", "b"): {"b": 1}}
    )
    V = Algebra.from_products(QQ, ("u",), {("u", "u"): {"u": 1}})
    ra = RightAction.from_images(V, A, {("u", "a"): {"u": 1}, ("u", "b"): {"u": 1}})
    mp = MatchedPair(A, V, ra, LeftAction.zero(V, A))
    verdict = mp.verify()
    assert not verdict.ok
    assert verdict.failed_axioms() == ("MP3",)


def test_verify_stop_early_stops_at_first_failure():
    A = Algebra.from_products(
        QQ, ("a", "b"), {("a", "a"): {"a": 1}, ("b", "b"): {"b": 1}}
    )
    V = Algebra.from_products(QQ, ("u",), {("u", "u"): {"u": 1}})
    ra = RightAction.from_images(V, A, {("u", "a"): {"u": 1}, ("u", "b"): {"u": 1}})
    mp = MatchedPair(A, V, ra, LeftAction.zero(V, A))
    verdict = mp.verify(stop_early=True)
    assert not verdict.ok
    assert len(verdict.failures) == 1


def test_verify_is_one_cube_law_pass(monkeypatch, non_jordan_v_jpair):
    """verify() on a fresh pair, PASS or FAIL, with or without stop_early,
    reads all ten axioms off one pass on the product table: it never
    calls a factor's jordan_check or an action's own check."""
    calls = []
    inner = identities._cube_coefficients

    def counted(*args):
        calls.append(args)
        return inner(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("verify() ran a separate pass")

    monkeypatch.setattr(identities, "_cube_coefficients", counted)
    monkeypatch.setattr(Algebra, "jordan_check", refuse)
    monkeypatch.setattr(_Action, "check", refuse)
    for mp in (catalog("J17-pair"), load_pair(non_jordan_v_jpair)):
        for stop_early in (False, True):
            fresh = MatchedPair(mp.A, mp.V, mp.right, mp.left)
            calls.clear()
            fresh.verify(stop_early=stop_early)
            assert len(calls) == 1
            assert calls[0][1] is fresh.product_sparse()


def test_jordan_v_failure_report(non_jordan_v_jpair, capsys):
    """A complement factor that fails the Jordan identity is reported in
    V's coordinates, with V's generic elements x and y, in the pair ring;
    jalg mp-check prints the same line."""
    mp = load_pair(non_jordan_v_jpair)
    line = "jordan-V[V:0] residual x0*x1^2*y2 + 2*x0*x1*x2*y1 + 2*x0*x1*x2*y2 + x0*x2^2*y1"
    verdict = mp.verify()
    assert verdict.failed_axioms() == ("jordan-V",)
    assert [str(f) for f in verdict.failures] == [line]
    (failure,) = verdict.failures
    assert failure.residual.ring.names == ("a0", "b0", "x0", "x1", "x2", "y0", "y1", "y2")
    assert failure.witness() == "coefficient 1 at x0*x1^2*y2"
    early = MatchedPair(mp.A, mp.V, mp.right, mp.left).verify(stop_early=True)
    assert early.failures == verdict.failures
    assert early.checked == ("jordan-A", "jordan-V")
    assert main(["mp-check", non_jordan_v_jpair]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "jordan-V: FAIL" in out and "right-action: PASS" in out and "MP6: PASS" in out
    assert out[-2:] == ["fail", "  " + line]


def test_pair_equality_and_field_guard():
    mp1 = catalog("defmap-pair")
    mp2 = catalog("defmap-pair")
    assert mp1 == mp2
    with pytest.raises(JalgError):
        MatchedPair(
            Algebra.abelian(QQ, ("a",)),
            Algebra.abelian(F5, ("x",)),
            RightAction.zero(Algebra.abelian(F5, ("x",)), Algebra.abelian(QQ, ("a",))),
            LeftAction.zero(Algebra.abelian(F5, ("x",)), Algebra.abelian(QQ, ("a",))),
        )


def test_pair_to_field():
    mp = catalog("defmap-pair").to_field(F5)
    assert mp.A.field is F5
    assert mp.verify().ok
    # the 1/2 weight on v <| a becomes 3 mod 5
    assert mp.right.apply([0, 1], [1, 0]) == [0, 3]


# -- two-sided product ---------------------------------------------------------


def test_bicross_reproduces_j5(j5):
    mp = catalog("J5-pair")
    bp = bicross(mp)
    E = bp.product
    assert E.basis == j5.basis
    assert E.table_key() == j5.table_key()
    assert E.is_jordan


def test_bicross_embeddings_are_subalgebras():
    """bicross takes its unit-vector embeddings as a split of the product
    without deciding it; here they are decided, for every catalog pair over
    Q, F5 and F7: both are subalgebras, and complementary."""
    from jalg import complement_check, subalgebra_check

    for name, field in itertools.product(PAIR_NAMES, (None, F5, Field(7))):
        bp = bicross(catalog(name, field=field))
        assert subalgebra_check(bp.product, bp.a_embedding), (name, field)
        assert subalgebra_check(bp.product, bp.v_embedding), (name, field)
        assert complement_check(bp.product, bp.a_embedding, bp.v_embedding), (name, field)


def test_bicross_table_unverified_matches_bicross():
    mp = catalog("J7-pair")
    assert bicross_table(mp).table_key() == bicross(mp).product.table_key()


def test_bicross_rejects_unmatched():
    A = Algebra.from_products(
        QQ, ("a", "b"), {("a", "a"): {"a": 1}, ("b", "b"): {"b": 1}}
    )
    V = Algebra.from_products(QQ, ("u",), {("u", "u"): {"u": 1}})
    ra = RightAction.from_images(V, A, {("u", "a"): {"u": 1}, ("u", "b"): {"u": 1}})
    mp = MatchedPair(A, V, ra, LeftAction.zero(V, A))
    with pytest.raises(VerificationError):
        bicross(mp)


def test_semidirect_right_equals_bicross_with_zero_left():
    mp = catalog("defmap-pair")
    assert mp.left.is_zero()
    E = semidirect_right(mp.A, mp.V, mp.right)
    assert E.table_key() == bicross(mp).product.table_key()


def test_semidirect_left(tmp_path):
    """A left pair that passes builds bicross's product of its zero-right
    pair; J7-pair with its right action stripped fails exactly L1-L3."""
    _, _, mp = _semidirect_case(tmp_path, "left-product")
    zp = MatchedPair(mp.A, mp.V, RightAction.zero(mp.V, mp.A), mp.left)
    E = semidirect_left(mp.A, mp.V, mp.left)
    assert E.table_key() == bicross(zp).product.table_key()
    j7 = catalog("J7-pair")
    with pytest.raises(VerificationError) as info:
        semidirect_left(j7.A, j7.V, j7.left)
    lines = str(info.value).splitlines()
    assert lines[:2] == ["semidirect axioms fail:", "fail"]
    assert {line.split("[")[0].strip() for line in lines[2:]} == {"L1", "L2", "L3"}


def _idempotent_and_line():
    """A = (a a = a) and a 1-dim abelian V, over Q."""
    A = Algebra.from_products(QQ, ("a",), {("a", "a"): {"a": 1}})
    return A, Algebra.abelian(QQ, ("x",))


def test_semidirect_left_fail_names_the_axiom():
    A, V = _idempotent_and_line()
    la = LeftAction.from_images(V, A, {("x", "a"): {"a": 1}})
    with pytest.raises(VerificationError) as info:
        semidirect_left(A, V, la)
    assert str(info.value) == (
        "semidirect axioms fail:\nfail\n  L2[A:0] residual a0^2*x0*y0 + 2*a0*x0^2*y0"
    )


def test_semidirect_right_fail_names_the_axiom():
    A, V = _idempotent_and_line()
    ra = RightAction.from_images(V, A, {("x", "a"): {"x": 2}})
    with pytest.raises(VerificationError) as info:
        semidirect_right(A, V, ra)
    assert str(info.value) == "semidirect axioms fail:\nfail\n  R2[V:0] residual 6*a0^2*b0*x0"


def _pair_text(a_lines, v_lines, actions):
    """A Q pair file: the lines of A and of V after `field Q`, then the actions."""
    blocks = [
        f"algebra {name}\n  field Q\n" + "".join(f"  {line}\n" for line in lines) + "end\n"
        for name, lines in (("A", a_lines), ("V", v_lines))
    ]
    return "\n".join(blocks) + "\n" + "".join(f"{line}\n" for line in actions)


_PLANE_AB = ("dim 2", "basis a b")
_IDEMPOTENTS = ("dim 2", "basis e f", "mult e e = e", "mult f f = f")
_POINT = ("dim 1", "basis a", "mult a a = a")
_LINE = ("dim 1", "basis x")

# One-sided pairs, by side and by the stage of semidirect_left/right that
# decides them.  In the two action-law pairs two orthogonal idempotents act
# on an abelian plane by non-commuting operators: e fixes the first basis
# vector and f moves it to the second.
SEMIDIRECT_CASES = {
    "left-product": ("left", _pair_text(_PLANE_AB, ("dim 1", "basis t"), ["left t . a = b"])),
    "right-product": ("right", None),  # catalog defmap-pair, written out
    "left-jordan": ("left", NON_JORDAN_V_PAIR),
    "right-jordan": ("right", NON_JORDAN_V_PAIR),
    "left-law": ("left", _pair_text(_PLANE_AB, _IDEMPOTENTS, ["left e . a = a", "left f . a = b"])),
    "right-law": (
        "right", _pair_text(_IDEMPOTENTS, ("dim 2", "basis u v"), ["right u . e = u", "right u . f = v"])
    ),
    "left-axioms": ("left", _pair_text(_POINT, _LINE, ["left x . a = a"])),
    "right-axioms": ("right", _pair_text(_POINT, _LINE, ["right x . a = 2 x"])),
}


def _semidirect_case(tmp_path, name):
    """(side, path of the pair file, a freshly parsed pair) for a case."""
    side, text = SEMIDIRECT_CASES[name]
    path = tmp_path / f"{name}.jpair"
    path.write_text(text or write_pair(catalog("defmap-pair")))
    return side, str(path), load_pair(str(path))


def _build(side, mp):
    if side == "left":
        return semidirect_left(mp.A, mp.V, mp.left)
    return semidirect_right(mp.A, mp.V, mp.right)


@pytest.mark.parametrize("name", SEMIDIRECT_CASES)
def test_semidirect_is_one_cube_law_pass(monkeypatch, tmp_path, name):
    """A one-sided product on a fresh pair, built or refused at any stage,
    is decided by one pass on the product table: neither factor's
    jordan_check nor the action's own check runs."""
    side, _, mp = _semidirect_case(tmp_path, name)
    calls = []
    inner = identities._cube_coefficients

    def counted(*args):
        calls.append(args)
        return inner(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("a one-sided product ran a separate pass")

    monkeypatch.setattr(identities, "_cube_coefficients", counted)
    monkeypatch.setattr(Algebra, "jordan_check", refuse)
    monkeypatch.setattr(_Action, "check", refuse)
    if name.endswith("product"):
        assert _build(side, mp).dim == mp.A.dim + mp.V.dim
    else:
        with pytest.raises(VerificationError):
            _build(side, mp)
    assert len(calls) == 1


_STAGE_MESSAGES = {
    "left-jordan": "V(dim=3, field=F5) fails the Jordan identity",
    "right-jordan": "V(dim=3, field=F5) fails the Jordan identity",
    "left-law": "left action law fails:\nfail\n  left-action[M:1] residual a0*x0^2*x1 - 1*a0*x0*x1^2",
    "right-law": "right action law fails:\nfail\n  right-action[M:1] residual a0^2*a1*x0 - 1*a0*a1^2*x0",
}


@pytest.mark.parametrize("name", _STAGE_MESSAGES)
def test_semidirect_stage_messages(capsys, tmp_path, name):
    """A factor's Jordan identity and the action law are reported as
    before the product, through the API and through `jalg semidirect`."""
    message = _STAGE_MESSAGES[name]
    side, path, mp = _semidirect_case(tmp_path, name)
    with pytest.raises(VerificationError) as info:
        _build(side, mp)
    assert str(info.value) == message
    assert main(["semidirect", path, "--side", side]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"failed: {message}\n"


def test_with_zero_actions_gives_direct_sum():
    base = catalog("J17-pair")
    mp = MatchedPair.with_zero_actions(base.A, base.V)
    assert mp.verify().ok
    E = bicross(mp).product
    # no cross terms: a . u = 0 in the direct sum
    a = E.basis.index("a")
    u = E.basis.index("u")
    assert all(E.field.is_zero(c) for c in E.sc[a][u])


# -- factorization -------------------------------------------------------------


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_canonical_pair_roundtrip(name):
    mp = catalog(name)
    E = bicross(mp).product
    fact = Factorization(
        E,
        Subspace.span_of_labels(E, mp.A.basis),
        Subspace.span_of_labels(E, mp.V.basis),
    )
    assert canonical_pair(fact) == mp


def test_factorization_requires_closed_complements(j5):
    # span{a+u, b} is not closed: (a+u).b = u/2 escapes
    with pytest.raises(JalgError):
        Factorization(
            j5,
            Subspace(j5, [[1, 0, 1, 0], [0, 1, 0, 0]]),
            Subspace.span_of_labels(j5, ["u", "v"]),
        )
    # overlapping spans are rejected even when both sides are closed
    with pytest.raises(JalgError):
        Factorization(
            j5,
            Subspace.span_of_labels(j5, ["a", "b"]),
            Subspace.span_of_labels(j5, ["a", "b"]),
        )
    fact = Factorization(
        j5,
        Subspace.span_of_labels(j5, ["a", "b"]),
        Subspace.span_of_labels(j5, ["u", "v"]),
    )
    assert fact.E is j5
    with pytest.raises(JalgError, match=r"^expected 4 coordinates, got 3$"):
        fact.split([1, 0, 0])


def test_alternate_factorization_of_j5(j5):
    # J5 also splits along span{a,u} and span{b,v}, with a nonzero
    # left action carrying u.b = u/2 back into the first factor
    fact = Factorization(
        j5,
        Subspace.span_of_labels(j5, ["a", "u"]),
        Subspace.span_of_labels(j5, ["b", "v"]),
    )
    mp = canonical_pair(fact)
    assert mp.verify().ok
    assert not mp.left.is_zero()


def test_split_mono_decomposition(j5):
    # project J5 onto span{a, b} along span{u, v}: an algebra projection
    p = LinearMap.from_images(
        j5, j5, {"a": {"a": 1}, "b": {"b": 1}, "u": {}, "v": {}}
    )
    E, iso = split_mono_decompose(j5, p)
    assert E.dim == 4
    assert iso.is_invertible()
    from jalg import hom_check

    assert hom_check(iso, E, j5)


def test_split_mono_dim_zero_kernel():
    A2 = catalog("A2")
    p = LinearMap.identity(A2.field, A2.dim)
    E, iso = split_mono_decompose(A2, p)
    assert E.dim == A2.dim
    assert iso.is_invertible()


def test_split_mono_rejects_non_projection(j5):
    # swapping the idempotents and killing u, v respects every product
    p = LinearMap.from_images(
        j5, j5, {"a": {"b": 1}, "b": {"a": 1}, "u": {}, "v": {}}
    )
    with pytest.raises(VerificationError, match="^projection is not idempotent$"):
        split_mono_decompose(j5, p)
    # doubling sends a = aa to 2a, not to (2a)(2a) = 4a
    one = LinearMap.identity(j5.field, j5.dim)
    double = one.add(one)
    with pytest.raises(VerificationError, match="^projection is not an algebra map$"):
        split_mono_decompose(j5, double)


def test_split_mono_is_one_cube_law_pass(monkeypatch, j5):
    """The right semidirect product is the canonical pair's own product:
    its verify() verdict is read once, not taken again on a second pair."""
    p = LinearMap.from_images(j5, j5, {"a": {"a": 1}, "b": {"b": 1}, "u": {}, "v": {}})
    calls = []
    inner = identities._cube_coefficients

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(identities, "_cube_coefficients", counted)
    split_mono_decompose(j5, p)
    assert len(calls) == 1


def test_split_mono_of_a_product_with_zero_left_action():
    """Projecting the defmap-pair product onto A along V (an algebra map,
    since the left action is zero) gives back the product's own table,
    with psi the identity."""
    mp = catalog("defmap-pair")
    assert mp.left.is_zero()
    bp = bicross(mp)
    E = bp.product
    p = Factorization(E, bp.a_embedding, bp.v_embedding).pi_A
    product, psi = split_mono_decompose(E, p)
    assert product.basis == E.basis
    assert product.sc == E.sc
    assert psi == LinearMap.identity(E.field, E.dim)


# -- nilpotent family and census ----------------------------------------------


def test_pair_from_nilpotent_iff_cube_zero():
    A0 = Algebra.abelian(F5, ["e0", "e1"])
    nilp = LinearMap(F5, 2, 2, [[0, 0], [1, 0]])  # e0 -> e1 ... strictly lower
    mp = pair_from_nilpotent(A0, nilp)
    assert mp.verify().ok
    unip = LinearMap(F5, 2, 2, [[1, 0], [0, 1]])
    mp2 = pair_from_nilpotent(A0, unip)
    assert not mp2.verify().ok


def test_pair_from_nilpotent_rejects_nonabelian(j5):
    with pytest.raises(JalgError):
        pair_from_nilpotent(j5, LinearMap.identity(j5.field, j5.dim))


def test_abelian_census_n1():
    census = enumerate_abelian_pairs(1, F5)
    assert census.candidates == 25
    assert len(census.pairs) == 1
    lam, cols, mp = census.pairs[0]
    assert lam == (0,)
    assert cols == ((0,),)
    assert mp.verify().ok


def test_abelian_census_needs_finite_field():
    with pytest.raises(JalgError):
        enumerate_abelian_pairs(1, QQ)


def test_abelian_census_large_guard(monkeypatch):
    """The solver's node budget is the one bound on the census."""
    monkeypatch.setattr(poly, "SOLVE_NODE_BUDGET", 100)
    for n in (2, 4):
        with pytest.raises(BudgetError):
            enumerate_abelian_pairs(n, F5)


def test_abelian_census_rejects_negative_dimension():
    with pytest.raises(JalgError):
        enumerate_abelian_pairs(-1, F5)


# -- the pair/product equivalence as a property ---------------------------------


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)
def test_pair_axioms_iff_product_jordan(s, t, wr, wl):
    """On 1-dim factors over F5 the axioms, expanded by the oracle, hold
    exactly when the two-sided product satisfies the cube law."""
    A = Algebra.from_products(F5, ("a",), {("a", "a"): {"a": s}})
    V = Algebra.from_products(F5, ("x",), {("x", "x"): {"x": t}})
    mp = MatchedPair(
        A, V, RightAction(V, A, [[[wr]]]), LeftAction(V, A, [[[wl]]])
    )
    assert oracle.verify(mp).ok == bicross_table(mp).jordan_check().ok


@pytest.mark.parametrize("p", [0, 5, 7])
def test_projection_matches_express_oracle(p):
    """pi_A and split of a factorization, read off one inverse of the
    stacked basis, against the express oracle (per unit vector, and on random
    vectors), on seeded random complementary subspaces of an abelian
    algebra (all are subalgebras)."""
    f = Field(p)
    rng = random.Random(60 + p)
    vrng = random.Random(70 + p)
    for _ in range(30):
        n = rng.randint(1, 5)
        while True:
            rows = [
                [f.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)]
                for _ in range(n)
            ]
            if linalg.rank(f, rows) == n:
                break
        k = rng.randint(0, n)
        E = Algebra.abelian(f, [f"e{i}" for i in range(n)])
        A_sub, B_sub = Subspace(E, rows[:k]), Subspace(E, rows[k:])
        fact = Factorization(E, A_sub, B_sub)
        assert fact.pi_A == express_projection(E, A_sub, B_sub)
        stacked = [list(r) for r in A_sub.rows + B_sub.rows]
        for _ in range(3):
            v = [f.coerce(Fraction(vrng.randint(-5, 5), vrng.randint(1, 3))) for _ in range(n)]
            coords = express(f, stacked, v)
            assert fact.split(v) == (coords[:k], coords[k:])
