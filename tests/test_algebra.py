"""Algebra construction, the commutative cube law, subspaces, extensions."""

import random
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    DeformationMap,
    DimensionError,
    Field,
    FieldMismatchError,
    JalgError,
    LeftAction,
    LinearMap,
    MatchedPair,
    PolyRing,
    QQ,
    RightAction,
    Subspace,
    VerificationError,
    complement_check,
    dual_action,
    induced_subalgebra,
    jordanize,
    semidirect_right,
    subalgebra_check,
    subalgebra_witness,
)
from jalg import identities
from jalg.catalog import ALGEBRA_NAMES, catalog
from jalg.identities import _bilinear, _linear, _sparse
from conftest import module_action, module_pair, regular_module
from slow_oracles import express

F5 = Field(5)
F7 = Field(7)
half = Fraction(1, 2)


def test_j5_product_table(j5):
    def prod(x, y):
        return j5.mul(j5.basis_element(x), j5.basis_element(y))

    a, b, u, v = (j5.basis_element(lab) for lab in "abuv")
    assert prod("a", "a").coords == a.coords
    assert prod("b", "b").coords == b.coords
    assert prod("a", "u").coords == u.scale(half).coords
    assert prod("b", "u").coords == u.scale(half).coords
    assert prod("a", "v").coords == v.coords
    assert prod("b", "v").is_zero
    assert prod("u", "v").is_zero
    # commutativity is built into the stored table
    for x in j5.basis:
        for y in j5.basis:
            assert prod(x, y).coords == prod(y, x).coords


def test_j5_satisfies_cube_law(j5):
    verdict = j5.jordan_check()
    assert verdict.ok
    assert j5.is_jordan


def test_cube_law_failure_has_numeric_witness(j5):
    # raise the a.u weight from 1/2 to 1: the cube law breaks
    products = {}
    for i, x in enumerate(j5.basis):
        for j, y in enumerate(j5.basis[i:], start=i):
            coords = j5.sc[i][j]
            combo = {
                lab: c for lab, c in zip(j5.basis, coords) if not QQ.is_zero(c)
            }
            if combo:
                products[(x, y)] = combo
    products[("a", "u")] = {"u": 1}
    broken = Algebra.from_products(QQ, j5.basis, products)
    verdict = broken.jordan_check()
    assert not verdict.ok
    assert not broken.is_jordan
    failure = verdict.failures[0]
    assert failure.axiom == "jordan"
    # the residual is symbolic in generic coefficients; pin it numerically
    # at X = a + u, Y = b, where ((X.X).Y).X and (X.X).(Y.X) disagree
    witness = {f"a{i}": c for i, c in enumerate([1, 0, 1, 0])}
    witness |= {f"b{i}": c for i, c in enumerate([0, 1, 0, 0])}
    value = failure.residual.eval(witness)
    assert not QQ.is_zero(value)
    assert value == Fraction(1, 2)
    # the same witness evaluated through the product: lhs u vs rhs u/2
    X = broken.element([1, 0, 1, 0])
    Y = broken.element([0, 1, 0, 0])
    Xsq = broken.mul(X, X)
    lhs = broken.mul(Xsq, broken.mul(Y, X))
    rhs = broken.mul(broken.mul(Xsq, Y), X)
    assert lhs.coords != rhs.coords
    assert "jordan" in verdict.describe()


def test_element_arithmetic(j5):
    a = j5.basis_element("a")
    u = j5.basis_element("u")
    x = j5.element([1, 0, 1, 0])
    assert j5.mul(x, x).coords == j5.element([1, 0, 1, 0]).coords  # (a+u)^2 = a+u
    assert a.scale(Fraction(3)).coords == (3, 0, 0, 0)
    assert u.is_zero is False
    assert j5.zero.is_zero
    with pytest.raises(DimensionError):
        j5.element([1, 0])


def test_from_products_rejects_unknown_labels():
    with pytest.raises(JalgError):
        Algebra.from_products(QQ, ("a",), {("a", "z"): {"a": 1}})
    with pytest.raises(JalgError):
        Algebra.from_products(QQ, ("a",), {("a", "a"): {"z": 1}})


def test_span_of_labels_rejects_unknown_labels(j5):
    """An unknown label is the error basis_element gives, not a KeyError."""
    for call in (lambda: Subspace.span_of_labels(j5, ["a", "zz"]), lambda: j5.basis_element("zz")):
        with pytest.raises(JalgError) as exc:
            call()
        assert str(exc.value) == "unknown basis label 'zz'"


def test_abelian():
    A = Algebra.abelian(QQ, ["x", "y"])
    assert A.is_abelian
    assert A.is_jordan
    assert A.mul(A.basis_element("x"), A.basis_element("y")).is_zero


def test_to_field(j5):
    j5f = j5.to_field(F5)
    assert j5f.field is F5
    u = j5f.basis_element("u")
    prod = j5f.mul(j5f.basis_element("a"), u)
    assert prod.coords == u.scale(3).coords  # 1/2 becomes 3 mod 5
    assert j5f.is_jordan


def test_jordanize_matrix_units():
    # 2x2 matrix units under genuine matrix multiplication
    basis = ["e11", "e12", "e21", "e22"]
    idx = {lab: k for k, lab in enumerate(basis)}

    def unit_product(x, y):
        # e_ij e_kl = delta_jk e_il
        i, j = x[1], x[2]
        k, l = y[1], y[2]
        out = [QQ.zero] * 4
        if j == k:
            out[idx[f"e{i}{l}"]] = QQ.one
        return out

    assoc = [[unit_product(x, y) for y in basis] for x in basis]
    J = jordanize(QQ, basis, assoc)
    e11 = J.basis_element("e11")
    e12 = J.basis_element("e12")
    prod = J.mul(e11, e12)
    assert prod.coords == e12.scale(half).coords
    assert J.is_jordan
    # squares agree with the associative squares
    assert J.mul(e11, e11).coords == e11.coords


def test_jordanize_rejects_nonassociative():
    # x*x = y, x*y = x is not associative: (xx)y != x(xy)
    assoc = [[[0, 1], [1, 0]], [[1, 0], [0, 0]]]
    with pytest.raises(JalgError):
        jordanize(QQ, ["x", "y"], assoc)


def test_dual_action_values():
    A = Algebra.from_products(QQ, ("a",), {("a", "a"): {"a": 1}})
    ra = dual_action(A)
    assert type(ra) is RightAction and ra.A is A
    assert ra.V.basis == ("a*",) and ra.V.is_abelian
    # a* <| a = a*: tensor[x][a] holds coordinates on the dual basis
    assert ra.tensor[0][0] == (Fraction(1),)
    assert module_pair(ra).verify().ok


def test_dual_action_refuses_a_non_jordan_algebra():
    # x^2 = y, xy = x fails the Jordan identity
    A = Algebra.from_products(QQ, ("x", "y"), {("x", "x"): {"y": 1}, ("x", "y"): {"x": 1}})
    assert not A.is_jordan
    with pytest.raises(VerificationError, match=r"^dual action requires a Jordan algebra$"):
        dual_action(A)


def test_regular_bimodule():
    A2 = Algebra.from_products(
        QQ, ("a", "b"), {("a", "a"): {"a": 1}, ("b", "b"): {"b": 1}}
    )
    assert module_pair(regular_module(A2)).verify().ok


def test_bimodule_failure_detected():
    A = Algebra.from_products(QQ, ("a",), {("a", "a"): {"a": 1}})
    # doubling the regular action breaks the linearized law, MP3, alone
    doubled = module_action(A, [[[2]]], ("m",))
    assert module_pair(doubled).verify().failed_axioms() == ("MP3",)
    with pytest.raises(VerificationError, match=r"^semidirect axioms fail:\nfail\n  R2\[V:0\] "):
        semidirect_right(A, doubled.V, doubled)
    ok = module_action(A, [[[1]]], ("m",))
    assert module_pair(ok).verify().ok


def test_null_split_extension():
    A = Algebra.from_products(
        QQ, ("a", "b"), {("a", "a"): {"a": 1}, ("b", "b"): {"b": 1}}
    )
    ra = dual_action(A)
    E = semidirect_right(A, ra.V, ra)
    assert E.basis == ("a", "b", "a*", "b*")
    assert E.is_jordan
    # the module part squares to zero
    astar = E.basis_element("a*")
    assert E.mul(astar, astar).is_zero
    # algebra part multiplies as in A
    assert E.mul(E.basis_element("a"), E.basis_element("a")).coords == (
        1, 0, 0, 0,
    )


def test_bimodule_rejects_wrong_labels():
    """A module's labels are its factor's basis: Algebra refuses duplicates,
    the action refuses a factor of the wrong size, and labels that clash
    with A's are primed in the product instead of refused."""
    A = Algebra.from_products(QQ, ("a",), {("a", "a"): {"a": 1}})
    with pytest.raises(JalgError, match=r"^duplicate basis labels \('m', 'm'\)$") as err:
        Algebra.abelian(QQ, ("m", "m"))
    assert type(err.value) is JalgError
    with pytest.raises(DimensionError, match=r"^action tensor must have one row per V basis vector$"):
        RightAction(Algebra.abelian(QQ, ("m",)), A, [[[1]], [[1]]])
    ra = module_action(A, [[[1]]], ("a",))
    assert semidirect_right(A, ra.V, ra).basis == ("a", "a'")


def test_null_split_extension_over_the_zero_algebra():
    """V's size comes from V, not from the (absent) action rows."""
    A = Algebra(QQ, (), [])
    V = Algebra.abelian(QQ, ("m0", "m1"))
    E = semidirect_right(A, V, RightAction.zero(V, A))
    assert E.basis == ("m0", "m1")
    assert E.is_abelian and E.is_jordan


@pytest.mark.parametrize("field", [QQ, F5, F7], ids=str)
def test_null_split_extension_jordan_verdict_is_seeded_soundly(field):
    """The PASS that semidirect_right seeds (through bicross) equals a fresh
    cube-law pass on its table, for the regular and dual modules of every
    catalog algebra."""
    for name in ALGEBRA_NAMES:
        A = catalog(name, field=field)
        for ra in (regular_module(A), dual_action(A)):
            E = semidirect_right(A, ra.V, ra)
            assert E._jordan is not None
            assert E.jordan_check() == identities.jordan_verdict(E.field, _sparse(E.sc, E.ring), E.params), name


def test_regular_bimodule_extends_with_primed_labels(j5):
    """The product of the regular module primes A's labels, so A acting on
    itself has a null split extension, with a seeded Jordan verdict that a
    fresh pass on its table confirms."""
    ra = regular_module(j5)
    E = semidirect_right(j5, ra.V, ra)
    assert E.basis == j5.basis + tuple(f"{lab}'" for lab in j5.basis)
    assert E.jordan_check() == identities.jordan_verdict(E.field, _sparse(E.sc, E.ring), E.params)
    assert E.jordan_check().ok
    # a primed label already in use is primed again
    A = Algebra.from_products(QQ, ("a", "a'"), {("a", "a"): {"a": 1}})
    ra = regular_module(A)
    assert semidirect_right(A, ra.V, ra).basis[2:] == ("a''", "a'''")


def test_linear_map_from_images_rejects_unknown_target_label(j5):
    with pytest.raises(JalgError, match=r"^unknown labels \['z'\]$") as err:
        LinearMap.from_images(j5, j5, {"a": {"z": 1}})
    assert type(err.value) is JalgError


def test_linear_map_from_images_rejects_unknown_source_label(j5):
    with pytest.raises(JalgError, match=r"^unknown labels \['z'\]$"):
        LinearMap.from_images(j5, j5, {"z": {"a": 1}})
    assert LinearMap.from_images(j5, j5, {}) == LinearMap.zero(j5.field, j5.dim, j5.dim)


def test_linear_map_add_and_compose_check_shape_and_field():
    """add refuses a map of another shape (zip would drop the extra column
    and coordinate), and add and compose refuse a map over another field
    (its entries would be summed in the first map's arithmetic)."""
    with pytest.raises(DimensionError, match="^sum dimension mismatch$"):
        LinearMap.identity(QQ, 2).add(LinearMap.zero(QQ, 3, 3))
    with pytest.raises(DimensionError, match="^sum dimension mismatch$"):
        LinearMap.zero(F5, 2, 3).add(LinearMap.zero(F5, 3, 2))
    with pytest.raises(DimensionError, match="^composition dimension mismatch$"):
        LinearMap.zero(F5, 3, 2).compose(LinearMap.zero(F5, 2, 2))
    for other in (F7, QQ):
        with pytest.raises(FieldMismatchError, match=f"^F5 vs {other}$"):
            LinearMap.identity(F5, 2).add(LinearMap.identity(other, 2))
        with pytest.raises(FieldMismatchError, match=f"^F5 vs {other}$"):
            LinearMap.identity(F5, 2).compose(LinearMap.identity(other, 2))
    f = LinearMap(F5, 2, 3, [[1, 2, 3], [4, 0, 1]])
    g = LinearMap(F5, 3, 2, [[1, 1], [0, 2], [3, 4]])
    assert f.add(f) == LinearMap(F5, 2, 3, [[2, 4, 6], [8, 0, 2]])
    assert f.add(f.neg()) == LinearMap.zero(F5, 2, 3)
    assert g.compose(f) == LinearMap(F5, 2, 2, [[10, 17], [7, 8]])


def test_subspace_basics(j17):
    U = Subspace.span_of_labels(j17, ["a", "b"])
    assert U.dim == 2
    assert U.contains([1, 4, 0, 0, 0])
    assert not U.contains([0, 0, 1, 0, 0])
    assert U.coordinates([2, 3, 0, 0, 0]) is not None
    assert U.coordinates([0, 0, 1, 0, 0]) is None
    W = Subspace.span_of_labels(j17, ["b", "c"])
    assert U.intersect(W).dim == 1
    assert U.sum(W).dim == 3
    # spanning vectors may be redundant; the reduced dimension rules
    R = Subspace(j17, [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
    assert R.dim == 1


def _unreduced_scalar(rng, f):
    if f.characteristic:
        # unreduced on purpose: coordinates must coerce its input
        return rng.randrange(-f.characteristic, 3 * f.characteristic)
    return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))


@pytest.mark.parametrize("f", [QQ, F5, F7])
def test_subspace_coordinates_match_express(f):
    """Pivot read-off against the express oracle on random subspaces of
    dims 1-8, coordinate spans (rows with no off-pivot entries) among
    them, with vectors in the span, vectors that are mostly outside it,
    and vectors pushed off the span at a non-pivot column, where only the
    rows' off-pivot entries are subtracted."""
    rng = random.Random(20 + f.characteristic)
    outside = coordinate = 0
    for _ in range(100):
        n = rng.randint(1, 8)
        if rng.random() < 0.25:
            gens = [[int(k == u) for k in range(n)] for u in rng.sample(range(n), rng.randint(0, n))]
        else:
            gens = [
                [_unreduced_scalar(rng, f) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(rng.randint(0, n))
            ]
        U = Subspace(Algebra.abelian(f, [f"e{k}" for k in range(n)]), gens)
        coordinate += not any(U._off)
        inside = [0] * n
        for g in gens:
            c = _unreduced_scalar(rng, f)
            inside = [x + c * y for x, y in zip(inside, g)]
        stray = [_unreduced_scalar(rng, f) for _ in range(n)]
        vectors = [inside, stray]
        free = [c for c in range(n) if c not in U._pivots]
        if free:
            pushed = list(inside)
            pushed[rng.choice(free)] += rng.randrange(1, f.characteristic or 5)
            vectors.append(pushed)
        for v in vectors:
            got = U.coordinates(v)
            want = express(f, [list(r) for r in U.rows], [f.coerce(c) for c in v])
            assert got == want, (gens, v)
            assert U.contains(v) == (want is not None)
            if got is None:
                outside += 1
                continue
            assert all(type(c) is type(f.zero) for c in got)
            if f.characteristic:
                assert all(0 <= c < f.characteristic for c in got)
        assert U.contains(inside)
        if free:
            assert not U.contains(pushed)
    assert outside > 10 and coordinate > 10


@pytest.mark.parametrize("f", [QQ, F5, F7])
def test_complement_check_matches_intersection(f):
    """complement_check's dimension and rank test against a zero
    intersection and a full sum, on random subspace pairs.  Some W's reuse
    a vector of U, so pairs whose dimensions add up but which meet in a
    nonzero vector come up too."""
    rng = random.Random(40 + f.characteristic)
    meeting = complementary = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        E = Algebra.abelian(f, [f"e{k}" for k in range(n)])
        k = rng.randint(0, n)
        u_gens = [[_unreduced_scalar(rng, f) for _ in range(n)] for _ in range(k)]
        w_gens = [[_unreduced_scalar(rng, f) for _ in range(n)] for _ in range(n - k)]
        if u_gens and w_gens and rng.random() < 0.4:
            w_gens[0] = list(rng.choice(u_gens))
        U, W = Subspace(E, u_gens), Subspace(E, w_gens)
        meet = U.intersect(W).dim
        want = meet == 0 and U.sum(W).dim == E.dim
        assert complement_check(E, U, W) == want, (u_gens, w_gens)
        complementary += want
        meeting += U.dim + W.dim == n and meet > 0
    assert complementary > 20 and meeting > 5


def test_j17_two_label_subalgebras(j17):
    import itertools

    # every product of two distinct basis vectors lands in the span of one
    # of its factors, so all 10 label pairs close
    for pair in itertools.combinations(j17.basis, 2):
        U = Subspace.span_of_labels(j17, pair)
        assert subalgebra_check(j17, U)
        assert subalgebra_witness(j17, U) is None


def test_subalgebra_witness_escaping_product(j17):
    # span{a+b, c}: (a+b)(a+b) = a + 2b which leaves the span
    U = Subspace(j17, [[1, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert not subalgebra_check(j17, U)
    i, j, prod = subalgebra_witness(j17, U)
    assert (i, j) == (0, 0)
    assert prod == [1, 2, 0, 0, 0]
    assert not U.contains(prod)


def test_induced_subalgebra(j17):
    U = Subspace.span_of_labels(j17, ["a", "u"])
    sub, incl = induced_subalgebra(j17, U)
    assert sub.dim == 2
    assert sub.is_jordan
    # inclusion is a homomorphism onto the span
    from jalg import hom_check

    assert hom_check(incl, sub, j17)


def test_induced_subalgebra_rejects_open_span(j17):
    U = Subspace(j17, [[1, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    with pytest.raises(VerificationError, match="^subspace is not closed under multiplication$"):
        induced_subalgebra(j17, U)


def test_induced_subalgebra_is_one_pass_over_i_le_j(monkeypatch, j17):
    """Closure is decided in the pass that reads the table: n(n+1)/2
    products, one per unordered basis pair, and no separate check."""
    U = Subspace.span_of_labels(j17, ["a", "u", "v"])
    calls = []
    inner = Algebra.mul_coords

    def counted(self, x, y):
        calls.append((x, y))
        return inner(self, x, y)

    monkeypatch.setattr(Algebra, "mul_coords", counted)
    sub, _ = induced_subalgebra(j17, U)
    assert sub.dim == 3
    assert len(calls) == 6


def _naive_contraction(ring, tensor, u, v, out_dim):
    """sum_ijk u_i v_j tensor[i][j][k] e_k with no zero skipping."""
    out = [ring.zero] * out_dim
    for i in range(len(u)):
        for j in range(len(v)):
            for k in range(out_dim):
                term = ring.mul(ring.mul(u[i], v[j]), tensor[i][j][k])
                out[k] = ring.add(out[k], term)
    return out


def _naive_linear(ring, cols, x, out_dim):
    """sum_jk x_j cols[j][k] e_k with no zero skipping."""
    out = [ring.zero] * out_dim
    for j in range(len(x)):
        for k in range(out_dim):
            out[k] = ring.add(out[k], ring.mul(x[j], cols[j][k]))
    return out


def _random_scalar(ring, rng):
    """A sparse random entry: zero half the time."""
    if rng.random() < 0.5:
        return ring.zero
    value = ring.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if isinstance(ring, PolyRing):
        value = ring.add(value, ring.mul(ring.var("t"), ring.coerce(rng.randint(-2, 2))))
    return value


def test_mul_coords_against_direct_contraction(j17):
    """Cross-check the table contraction on fixed numeric vectors, then the
    one bilinear kernel and every product routed through it against a naive
    triple sum on random tables over Q, F7 and Q[t]; likewise the linear
    kernel and the maps routed through it against a naive double sum."""
    x = [Fraction(k) for k in (0, 1, 2, 3, 1)]
    y = [Fraction(k) for k in (1, 0, 1, 2, 0)]
    expect = [QQ.zero] * j17.dim
    for i in range(j17.dim):
        for j in range(j17.dim):
            c = QQ.mul(x[i], y[j])
            if QQ.is_zero(c):
                continue
            for k in range(j17.dim):
                expect[k] = QQ.add(expect[k], QQ.mul(c, j17.sc[i][j][k]))
    assert list(j17.mul_coords(x, y)) == expect
    assert _naive_contraction(QQ, j17.sc, x, y, j17.dim) == expect

    rng = random.Random(20220211)
    for field, params in ((QQ, ()), (F7, ()), (QQ, ("t",))):
        ring = PolyRing(field, params) if params else field

        def rand_vec(dim):
            return [_random_scalar(ring, rng) for _ in range(dim)]

        def rand_tensor(rows, cols, out):
            return [[rand_vec(out) for _ in range(cols)] for _ in range(rows)]

        for _ in range(15):
            n, m, out = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            tensor = rand_tensor(n, m, out)
            u, v = rand_vec(n), rand_vec(m)
            assert _bilinear(ring, _sparse(tensor, ring), u, v, out) == _naive_contraction(
                ring, tensor, u, v, out
            )
            # Algebra.mul_coords on a random symmetric table
            sym = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    sym[i][j] = sym[j][i] = rand_vec(n)
            V = Algebra(field, [f"x{i}" for i in range(n)], sym, params=params)
            w = rand_vec(n)
            assert V.mul_coords(u, w) == _naive_contraction(ring, sym, u, w, n)
            # both action classes: values in V (right) and in A (left)
            zero_table = [[[ring.zero] * m] * m] * m
            A = Algebra(field, [f"a{j}" for j in range(m)], zero_table, params=params)
            right, left = rand_tensor(n, m, n), rand_tensor(n, m, m)
            assert RightAction(V, A, right).apply(u, v) == _naive_contraction(ring, right, u, v, n)
            assert LeftAction(V, A, left).apply(u, v) == _naive_contraction(ring, left, u, v, m)
            # the linear kernel: m columns of length out
            cols, x = [rand_vec(out) for _ in range(m)], rand_vec(m)
            expect = _naive_linear(ring, cols, x, out)
            assert _linear(ring, cols, x, out) == expect
            B = Algebra.abelian(field, [f"b{k}" for k in range(out)])
            Y = Algebra.abelian(field, [f"y{j}" for j in range(m)])
            r = DeformationMap(MatchedPair.with_zero_actions(B, Y), cols, params)
            assert r.apply(x) == expect
            if params:
                continue  # linear maps and subspaces are scalar only
            assert LinearMap(field, m, out, cols).apply(x) == expect
            U = Subspace(B, cols)
            c = rand_vec(U.dim)
            assert U.coordinates(_naive_linear(ring, U.rows, c, out)) == c


def test_format_table_roundtrip_text(j5):
    text = j5.format_table()
    assert "a a = a" in text or "a.a = a" in text or "a*a" in text


def test_relabel(j5):
    renamed = j5.relabel(["p", "q", "m", "n"])
    assert renamed.basis == ("p", "q", "m", "n")
    m = renamed.basis_element("m")
    assert renamed.mul(renamed.basis_element("p"), m).coords == m.scale(half).coords


def test_dim_zero_algebra_allowed():
    Z = Algebra(QQ, (), ())
    assert Z.dim == 0
    assert Z.is_jordan
    assert Z.zero.coords == ()


def test_parametric_fail_is_a_polynomial_identity_failure():
    """A parametric FAIL means the identity fails as a polynomial in the
    parameters.  Over F5 the non-Jordan table u u = v, u v = u scaled by
    alpha^5 - alpha FAILs, though each of the 5 specializations is the
    zero algebra, which is Jordan."""
    base = Algebra.from_products(F5, ("u", "v"), {("u", "u"): {"v": 1}, ("u", "v"): {"u": 1}})
    assert not base.is_jordan
    alpha = PolyRing(F5, ("alpha",)).var("alpha")
    c = alpha**5 - alpha
    A = Algebra.from_products(
        F5, ("u", "v"), {("u", "u"): {"v": c}, ("u", "v"): {"u": c}}, params=("alpha",)
    )
    assert not A.jordan_check().ok
    for t in range(5):
        specialized = A.substitute_params({"alpha": t})
        assert specialized.is_abelian and specialized.is_jordan
