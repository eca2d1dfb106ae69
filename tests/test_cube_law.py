"""The cube-law kernel against generic-element expansion (tests/slow_oracles.py).

jordan_verdict and action_law_verdict decide the cube law coefficient by
coefficient, and a Jordan bimodule's two laws are the right-action and
MP3 pieces of its pair's (MatchedPair.verify).  The oracles expand the
same identities as polynomials in generic coordinates.  Both must give
equal Verdicts, equal describe() text and equal witnesses, PASS or FAIL,
over Q, F_p and with a parameter; the module laws, under the oracle's
names, equal failures and residuals.  The kernel's coefficients, read off
cached commutators [S_r, S_t], must also equal those of the U_pq kernel
it replaced (oracle.cube_coefficients), one by one.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    Field,
    JalgError,
    LeftAction,
    LinearMap,
    MatchedPair,
    PolyRing,
    QQ,
    RightAction,
    catalog,
    dual_action,
    identities,
    matched_pair,
    semidirect_right,
)
from jalg.catalog import ALGEBRA_NAMES, PAIR_NAMES
from jalg.identities import _sparse
from conftest import module_action, module_pair, regular_module
import slow_oracles as oracle

FIELDS = {"Q": QQ, "F5": Field(5), "F7": Field(7), "F11": Field(11)}


def _same(fast, slow):
    assert fast == slow
    assert fast.describe() == slow.describe()
    assert [f.witness() for f in fast.failures] == [f.witness() for f in slow.failures]


def _scalar(rng, f):
    if f.characteristic:
        return rng.randrange(f.characteristic)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_table(rng, f, n, zero_probability):
    """A symmetric n-dim table with random entries: almost never Jordan."""
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cell = [f.zero if rng.random() < zero_probability else f.coerce(_scalar(rng, f)) for _ in range(n)]
            sc[i][j] = sc[j][i] = cell
    return sc


def _symmetric(sc):
    n = len(sc)
    return [[sc[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def _direct_sum(f, tables):
    n = sum(len(t) for t in tables)
    sc = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for t in tables:
        d = len(t)
        for i in range(d):
            for j in range(d):
                sc[off + i][off + j][off : off + d] = list(t[i][j])
        off += d
    return sc


def _jordan_table(rng, f, n):
    """A Jordan table of dimension n, from the catalog or built up."""
    if n == 1:
        return [[[f.coerce(_scalar(rng, f))]]]
    by_dim = {2: ("V1", "V2", "V3", "A2"), 4: ("J5", "defmap-J"), 5: ("J7", "J17")}
    if n in by_dim:
        return [list(row) for row in catalog(rng.choice(by_dim[n]), field=f).sc]
    return _direct_sum(f, [_jordan_table(rng, f, 2), _jordan_table(rng, f, n - 2)])


def _basis_change(rng, f, n, dense):
    """An invertible matrix: dense, or a scaled permutation (keeps sparsity)."""
    while True:
        if dense:
            cols = [[f.coerce(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        else:
            perm = rng.sample(range(n), n)
            cols = [[f.coerce(rng.randint(1, 3)) if k == perm[i] else f.zero for k in range(n)] for i in range(n)]
        P = LinearMap(f, n, n, cols)
        if P.is_invertible():
            return P


def _rebase(f, sc, P):
    """The table of the same algebra on the basis given by P's columns."""
    A = Algebra(f, tuple(f"e{i}" for i in range(len(sc))), sc)
    back = P.inverse()
    n = A.dim
    return [[back.apply(A.mul_coords(list(P.cols[i]), list(P.cols[j]))) for j in range(n)] for i in range(n)]


def _perturbed(rng, f, sc):
    n = len(sc)
    out = [[list(cell) for cell in row] for row in sc]
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    out[i][j][k] = out[j][i][k] = f.add(out[i][j][k], f.one)
    return out


def _cases(name):
    """(label, table) over one field: for each dim 1-5, a sparse and a dense
    rebasing of a Jordan table, a perturbed copy of the dense one, and a
    sparse and a dense random table."""
    f = FIELDS[name]
    rng = random.Random(name)
    out = []
    for n in range(1, 6):
        base = _jordan_table(rng, f, n)
        sparse = _rebase(f, base, _basis_change(rng, f, n, dense=False))
        dense = _rebase(f, base, _basis_change(rng, f, n, dense=True))
        out += [
            (f"{n}-sparse-jordan", sparse),
            (f"{n}-dense-jordan", dense),
            (f"{n}-dense-perturbed", _perturbed(rng, f, dense)),
            (f"{n}-sparse-random", _random_table(rng, f, n, 0.7)),
            (f"{n}-dense-random", _random_table(rng, f, n, 0.0)),
        ]
    return out


@pytest.mark.parametrize("name", FIELDS)
def test_jordan_matches_expansion(name):
    f = FIELDS[name]
    outcomes = set()
    for label, sc in _cases(name):
        fast = identities.jordan_verdict(f, _sparse(sc, f))
        _same(fast, oracle.jordan_verdict(f, sc))
        if label.endswith("jordan"):
            assert fast.ok, label
        outcomes.add(fast.ok)
        if not fast.ok:
            early = identities.jordan_verdict(f, _sparse(sc, f), stop_early=True)
            _same(early, oracle.jordan_verdict(f, sc, stop_early=True))
            assert early.failures == fast.failures[:1]
    assert outcomes == {True, False}


def _action_verdicts(action):
    """The action law of one side, through the kernel (action.check) and
    the oracle, with the tensors and prefixes that action.check uses."""
    mp_acting = action._acting
    if action._side == "right":
        act = [[action.tensor[x][a] for x in range(action.V.dim)] for a in range(action.A.dim)]
        prefixes = ("a", "x")
    else:
        act, prefixes = action.tensor, ("x", "a")
    slow = oracle.action_law_verdict(
        mp_acting.field,
        mp_acting.sc,
        act,
        mp_acting.params,
        acting_prefix=prefixes[0],
        module_prefix=prefixes[1],
        axiom=f"{action._side}-action",
    )
    return action.check(), slow


@pytest.mark.parametrize("name", FIELDS)
def test_action_laws_match_expansion_on_both_sides(name):
    f = FIELDS[name]
    rng = random.Random("actions-" + name)
    pairs = [catalog(n, field=f) for n in ("defmap-pair", "J5-pair", "J7-pair", "J17-pair")]
    for na, nv in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)):
        A = Algebra(f, tuple(f"a{i}" for i in range(na)), _jordan_table(rng, f, na))
        V = Algebra(f, tuple(f"x{i}" for i in range(nv)), _jordan_table(rng, f, nv))
        right = [[[f.coerce(_scalar(rng, f)) for _ in range(nv)] for _ in range(na)] for _ in range(nv)]
        left = [[[f.coerce(_scalar(rng, f)) for _ in range(na)] for _ in range(na)] for _ in range(nv)]
        pairs.append(MatchedPair(A, V, RightAction(V, A, right), LeftAction(V, A, left)))
    outcomes = set()
    for mp in pairs:
        for action in (mp.right, mp.left):
            fast, slow = _action_verdicts(action)
            _same(fast, slow)
            outcomes.add(fast.ok)
    assert outcomes == {True, False}


def _one_law_failures(c):
    """(mul, act) pairs that fail one bimodule law alone, scaled by c.

    u^2 = v acting on <m0, m1, m2> by the shift u: m0 -> m1 -> m2 and
    v: m0 -> m1 fails the square law alone (at a0^3 m0); e^2 = e acting on
    <m0> by 2 fails the linearized law alone.  Scaling both tables keeps
    that, as both laws are cubic in their entries."""
    square_only = (
        [[[0, c], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, c, 0], [0, 0, c], [0, 0, 0]], [[0, c, 0], [0, 0, 0], [0, 0, 0]]],
    )
    return [square_only, ([[[c]]], [[[2 * c]]])]


# A bimodule's two laws as pieces of its pair's cube law, under the names
# the expanded oracle gives them.
_BIMODULE_LAWS = {"right-action": "bim-square", "MP3": "bim-linear"}


def _named_terms(poly, rename=lambda name: name):
    """A residual's terms as {((variable, exponent), ...): coefficient}."""
    names = [rename(name) for name in poly.ring.names]
    return {tuple((v, e) for v, e in zip(names, exp) if e): c for exp, c in poly.terms.items()}


def _x_as_m(name):
    return "m" + name[1:] if name[0] == "x" and name[1:].isdigit() else name


def _bimodule_failures(verdict):
    """The failures of the module laws in a pair's verdict, as the oracle
    reports them: (law, coordinate of M, residual terms with x_t named m_t).
    A's own Jordan identity is left out: the oracle does not decide it."""
    return [
        (_BIMODULE_LAWS[f.axiom], f.index, _named_terms(f.residual, _x_as_m))
        for f in verdict.failures
        if f.axiom in _BIMODULE_LAWS
    ]


def _same_bimodule_verdicts(f, cases, params=()):
    """MatchedPair.verify on each module's pair (A, V, act, 0) against the
    expanded oracle; returns the failed-law sets, in the oracle's names."""
    failed = set()
    for sc, act in cases:
        A = Algebra(f, tuple(f"e{i}" for i in range(len(sc))), sc, params=params)
        fast = _bimodule_failures(module_pair(module_action(A, act)).verify())
        slow = oracle.bimodule_verdict(f, sc, act, params)
        assert fast == [(g.axiom, g.index, _named_terms(g.residual)) for g in slow.failures]
        failed.add(tuple(dict.fromkeys(law for law, _, _ in fast)))
    return failed


@pytest.mark.parametrize("name", ("Q", "F5", "F7"))
def test_bimodule_matches_expansion(name):
    f = FIELDS[name]
    rng = random.Random("bimodule-" + name)
    cases = _one_law_failures(f.one)
    for n in (1, 2, 3, 4):
        A = Algebra(f, tuple(f"e{i}" for i in range(n)), _jordan_table(rng, f, n))
        m = rng.randint(1, 3)
        random_act = [[[f.coerce(_scalar(rng, f)) for _ in range(m)] for _ in range(m)] for _ in range(n)]
        cases += [(A.sc, A.sc), (A.sc, random_act)]
    failed = _same_bimodule_verdicts(f, cases)
    assert failed == {(), ("bim-square",), ("bim-linear",), ("bim-square", "bim-linear")}


@pytest.mark.parametrize("name", ("Q", "F5"))
def test_parametric_bimodules_match_expansion(name):
    """Entries in Q[alpha] and F5[alpha] on tables that are not Jordan, with
    V a zero table in the same parameter: the module laws are read off
    their own pieces, whatever A's own identity does."""
    f = FIELDS[name]
    ring = PolyRing(f, ("alpha",))
    alpha = ring.var("alpha")
    rng = random.Random("parametric-bimodule-" + name)
    cases = _one_law_failures(alpha)
    for n in (2, 3):
        for m in (1, 2, 3):
            sc = _symmetric([[[alpha * e + _scalar(rng, f) for e in cell] for cell in row] for row in _random_table(rng, f, n, 0.3)])
            act = [[[alpha * _scalar(rng, f) + _scalar(rng, f) for _ in range(m)] for _ in range(m)] for _ in range(n)]
            assert not identities.jordan_verdict(f, _sparse(sc, ring), ("alpha",)).ok
            cases.append((sc, act))
    failed = _same_bimodule_verdicts(f, cases, ("alpha",))
    assert {("bim-square",), ("bim-linear",), ("bim-square", "bim-linear")} <= failed


def test_bimodule_verdict_expands_nothing(monkeypatch):
    """Both module laws come from the cube-law kernel: the bilinear
    contraction, which a generic-element expansion runs on, is never called."""

    def forbidden(*args):
        raise AssertionError("the pair's verdict expanded a law through _bilinear")

    monkeypatch.setattr(identities, "_bilinear", forbidden)
    verdicts = [
        module_pair(module_action(Algebra(QQ, [f"e{i}" for i in range(len(sc))], sc), act)).verify()
        for sc, act in _one_law_failures(QQ.one)
    ]
    assert [v.failed_axioms() for v in verdicts] == [("right-action",), ("MP3",)]
    A = catalog("J5", field=Field(7))
    assert module_pair(regular_module(A)).verify().ok


def _module_grid():
    """(A, action) over Q, F5 and F7: for each catalog algebra its regular
    and dual modules and four seeded random modules, 162 in all."""
    for name in ("Q", "F5", "F7"):
        f = FIELDS[name]
        rng = random.Random("module-grid-" + name)
        for alg in ALGEBRA_NAMES:
            A = catalog(alg, field=f)
            out = [regular_module(A), dual_action(A)]
            for _ in range(4):
                m = rng.randint(1, 3)
                act = [
                    [[f.zero if rng.random() < 0.6 else f.coerce(_scalar(rng, f)) for _ in range(m)] for _ in range(m)]
                    for _ in range(A.dim)
                ]
                out.append(module_action(A, act))
            for ra in out:
                yield A, ra


def _null_split_table(A, ra):
    """(a, x)(b, y) = (ab, xb + ya) on A x V, written out entry by entry."""
    f, n, m = A.field, A.dim, ra.V.dim
    sc = [[[f.zero] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sc[i][j][k] = A.sc[i][j][k]
        for x in range(m):
            for y in range(m):
                sc[i][n + x][n + y] = sc[n + x][i][n + y] = ra.tensor[x][i][y]
    return sc


def test_module_grid_matches_expansion_and_the_written_out_extension():
    """On 162 modules the pair's module-law failures equal the expanded
    oracle's, and every module that passes has semidirect_right's table
    equal to the null split extension written out entry by entry."""
    outcomes = []
    for A, ra in _module_grid():
        act = [[ra.tensor[x][a] for x in range(ra.V.dim)] for a in range(A.dim)]
        verdict = module_pair(ra).verify()
        slow = oracle.bimodule_verdict(A.field, A.sc, act)
        assert _bimodule_failures(verdict) == [(g.axiom, g.index, _named_terms(g.residual)) for g in slow.failures]
        assert verdict.ok == slow.ok
        if verdict.ok:
            E = semidirect_right(A, ra.V, ra)
            assert [[list(cell) for cell in row] for row in E.sc] == _null_split_table(A, ra)
        outcomes.append(verdict.failed_axioms())
    assert len(outcomes) == 162
    # the 54 regular and dual modules pass, and so do some random ones
    assert outcomes.count(()) > 54
    assert {("MP3",), ("right-action", "MP3")} <= set(outcomes)


@pytest.mark.parametrize("name", ("Q", "F5"))
def test_parametric_tables_match_expansion(name):
    """Entries in Q[alpha] and F5[alpha]: a Jordan table scaled by a
    polynomial stays Jordan (the law is cubic in the entries); random
    polynomial entries fail; over F5, alpha^5 - alpha times a non-Jordan
    table fails as a polynomial identity."""
    f = FIELDS[name]
    ring = PolyRing(f, ("alpha",))
    alpha = ring.var("alpha")
    rng = random.Random("param-" + name)
    scales = [alpha, 1 - 2 * alpha, alpha * alpha + 3]
    if f.characteristic == 5:
        scales.append(alpha**5 - alpha)
    tables = []
    for n in (1, 2, 3):
        base = _jordan_table(rng, f, n)
        bad = _random_table(rng, f, n, 0.3)
        for c in scales:
            tables.append([[[c * e for e in cell] for cell in row] for row in base])
            tables.append([[[c * e for e in cell] for cell in row] for row in bad])
        tables.append(
            _symmetric([[[alpha * e + _scalar(rng, f) for e in cell] for cell in row] for row in bad])
        )
    outcomes = set()
    for sc in tables:
        fast = identities.jordan_verdict(f, _sparse(sc, ring), ("alpha",))
        _same(fast, oracle.jordan_verdict(f, sc, ("alpha",)))
        outcomes.add(fast.ok)
        act = [[[c * alpha for c in cell] for cell in row] for row in _random_table(rng, f, len(sc), 0.5)]
        _same(
            identities.action_law_verdict(f, _sparse(sc, ring), _sparse(act, ring), ("alpha",)),
            oracle.action_law_verdict(f, sc, act, ("alpha",)),
        )
    assert outcomes == {True, False}


def test_witness_is_the_first_printed_term():
    """witness() does not depend on the order the residual was built in."""
    ring = PolyRing(QQ, ("a0", "b0"))
    a, b = ring.var("a0"), ring.var("b0")
    low_first = b + 3 * a * a * b
    high_first = 3 * a * a * b + b
    assert list(low_first.terms) != list(high_first.terms)
    for residual in (low_first, high_first):
        failure = identities.AxiomFailure("jordan", "A", 0, residual)
        assert failure.witness() == "coefficient 3 at a0^2*b0"
        assert str(residual).startswith("3*a0^2*b0")


def test_parameter_clash_is_still_an_error():
    with pytest.raises(JalgError):
        identities.jordan_verdict(QQ, _sparse([[[QQ.one]]], PolyRing(QQ, ("a0",))), ("a0",))


# ---------------------------------------------------------------------------
# the commutator kernel against the U_pq kernel, coefficient by coefficient


def _sym_table(f, n):
    """Sym_n: symmetric n x n matrices with x.y = (xy + yx) / 2, on the
    basis E_ii, E_ij + E_ji (i < j)."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {b: k for k, b in enumerate(basis)}
    half = f.inv(f.coerce(2))
    table = []
    for x in basis:
        row = []
        for y in basis:
            # xy + yx = xy + (xy)^T, as x and y are symmetric
            prod = {}
            for i, k in {x, x[::-1]}:
                for k2, j in {y, y[::-1]}:
                    if k == k2:
                        prod[i, j] = prod.get((i, j), 0) + 1
                        prod[j, i] = prod.get((j, i), 0) + 1
            cell = [f.zero] * len(basis)
            for (i, j), c in prod.items():
                if i <= j:
                    cell[index[i, j]] = f.mul(f.coerce(c), half)
            row.append(cell)
        table.append(row)
    return table


def _decoded(result):
    bad, decode = result
    return {o: {key: decode(c) for key, c in cs.items()} for o, cs in bad.items()}


def _same_coefficients(f, mul, act, params=()):
    """The kernel's decoded coefficients, on the sparse forms of mul and
    act, equal the oracle's on the dense tables; returns them."""
    ring = PolyRing(f, params) if params else f
    mul_s = _sparse(mul, ring)
    act_s = mul_s if act is mul else _sparse(act, ring)
    fast = _decoded(identities._cube_coefficients(f, mul_s, act_s, params))
    assert fast == _decoded(oracle.cube_coefficients(f, mul, act, params))
    return fast


def _census_table(f, n):
    """matched_pair._abelian_pair_conditions' table at base dimension n:
    the pair product of the abelian base and the abelian line, with one
    indeterminate per action entry.  Returns (table, parameter names)."""
    params = tuple(f"l{i}" for i in range(n)) + tuple(f"d{i}{j}" for i in range(n) for j in range(n))
    ring = PolyRing(f, params)
    z = f.zero
    table = oracle._pair_product(
        [[(z,) * n] * n] * n,
        [[(z,)]],
        [[(ring.var(f"l{j}"),) for j in range(n)]],
        [[tuple(ring.var(f"d{i}{j}") for i in range(n)) for j in range(n)]],
        z,
    )
    return table, params


def _kernel_cases(f, rng):
    """(mul, act, params) over one field: the catalog's tables and actions,
    the block sum of the catalog pairs' products, intact and perturbed, the
    two one-sided products of J7-pair (one action zero), Sym_3 to Sym_5
    with dense rebasings and perturbed copies, block direct sums, seeded
    non-Jordan tables, actions with dim M != dim A, and the abelian-pair
    census's table at base dimension 3."""
    cases = [(A.sc, A.sc) for A in (catalog(name, field=f) for name in ALGEBRA_NAMES)]
    products = []
    for name in PAIR_NAMES:
        mp = catalog(name, field=f)
        products.append(oracle.pair_product(mp))
        cases.append((products[-1], products[-1]))
        right = [[mp.right.tensor[x][a] for x in range(mp.V.dim)] for a in range(mp.A.dim)]
        cases += [(mp.A.sc, right), (mp.V.sc, mp.left.tensor)]
    pair_sum = _direct_sum(f, products)
    cases += [(pair_sum, pair_sum), (_perturbed(rng, f, pair_sum),) * 2]
    mp = catalog("J7-pair", field=f)
    for one_sided in (
        MatchedPair(mp.A, mp.V, mp.right, LeftAction.zero(mp.V, mp.A)),
        MatchedPair(mp.A, mp.V, RightAction.zero(mp.V, mp.A), mp.left),
    ):
        cases.append((oracle.pair_product(one_sided),) * 2)
    for n in (3, 4, 5):
        sym = _sym_table(f, n)
        dense = _rebase(f, sym, _basis_change(rng, f, len(sym), dense=True))
        cases += [(t, t) for t in (sym, dense, _perturbed(rng, f, sym))]
        if n < 5:  # the U_pq kernel takes seconds on a dense non-Jordan Sym_5
            cases.append((_perturbed(rng, f, dense),) * 2)
    for blocks in ([_sym_table(f, 2), catalog("J5", field=f).sc], [_sym_table(f, 3)] * 2):
        block_sum = _direct_sum(f, [[list(row) for row in t] for t in blocks])
        cases += [(block_sum, block_sum), (_perturbed(rng, f, block_sum),) * 2]
    for n in range(1, 6):
        cases += [(t, t) for t in (_random_table(rng, f, n, 0.0), _random_table(rng, f, n, 0.7))]
        base = _jordan_table(rng, f, n)
        for m in {1, n + 1, max(1, n - 2)}:
            act = [[[f.coerce(_scalar(rng, f)) for _ in range(m)] for _ in range(m)] for _ in range(n)]
            cases.append((base, act))
    census, params = _census_table(f, 3)
    return [(mul, act, ()) for mul, act in cases] + [(census, census, params)]


@pytest.mark.parametrize("name", ("Q", "F5", "F7"))
def test_commutator_kernel_matches_the_upq_kernel(name):
    f = FIELDS[name]
    failing = passing = 0
    for mul, act, params in _kernel_cases(f, random.Random("kernel-" + name)):
        if _same_coefficients(f, mul, act, params):
            failing += 1
        else:
            passing += 1
    assert failing > 15 and passing > 15


@pytest.mark.parametrize("name", ("Q", "F5"))
def test_parametric_commutator_kernel_matches_the_upq_kernel(name):
    """Entries in Q[alpha] and F5[alpha], and the abelian-pair census's
    table with one indeterminate per action entry."""
    f = FIELDS[name]
    ring = PolyRing(f, ("alpha",))
    alpha = ring.var("alpha")
    rng = random.Random("kernel-param-" + name)
    failing = 0
    for n in (2, 3, 4):
        for table in (_jordan_table(rng, f, n), _random_table(rng, f, n, 0.3)):
            for mul in (
                [[[(1 - 2 * alpha) * e for e in cell] for cell in row] for row in table],
                _symmetric([[[alpha * e + _scalar(rng, f) for e in cell] for cell in row] for row in table]),
            ):
                failing += bool(_same_coefficients(f, mul, mul, ("alpha",)))
            m = n - 1
            act = [[[alpha * _scalar(rng, f) + _scalar(rng, f) for _ in range(m)] for _ in range(m)]
                   for _ in range(n)]
            failing += bool(_same_coefficients(f, table, act, ("alpha",)))
    assert failing > 5
    # matched_pair._abelian_pair_conditions at base dimension 2
    table, params = _census_table(f, 2)
    assert _same_coefficients(f, table, table, params)


@pytest.mark.parametrize("name", ("F5", "F7"))
def test_census_table_is_the_dense_products_sparse_form(monkeypatch, name):
    """The table _abelian_pair_conditions hands the kernel, assembled by
    _pair_sparse from empty factor forms and the indeterminate action
    cells, is _sparse of the oracle's dense build (_census_table), at base
    dimensions 1, 2 and 3."""
    f = FIELDS[name]
    seen = []
    inner = identities._cube_coefficients

    def captured(field, mul, act, params):
        seen.append((mul, act, params))
        return inner(field, mul, act, params)

    monkeypatch.setattr(identities, "_cube_coefficients", captured)
    for n in (1, 2, 3):
        seen.clear()
        matched_pair._abelian_pair_conditions(f, n)
        [(mul, act, params)] = seen
        dense, oracle_params = _census_table(f, n)
        assert act is mul and params == oracle_params
        assert mul == _sparse(dense, PolyRing(f, params))


# sha256 of the census conditions, one str() a line, in the order
# _abelian_pair_conditions lists them: (field, base dimension) -> (count,
# first 16 hex digits)
_CENSUS_ORDER = {
    ("F5", 1): (6, "e70b12b415d7c610"),
    ("F5", 2): (43, "e8adbadc53fbf063"),
    ("F5", 3): (139, "7b1fc7cfe60bb206"),
    ("F7", 1): (6, "69ef366f07d4b784"),
    ("F7", 2): (43, "1efd032f766349ff"),
    ("F7", 3): (139, "8fe41607dbc5b6c1"),
}


@pytest.mark.parametrize("name", ("F5", "F7"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_census_conditions_are_the_oracle_coefficients_in_a_fixed_order(name, n):
    """The census's conditions are the distinct decoded coefficients of its
    table's cube law, as the U_pq kernel gives them, and they keep their
    order, which the depth-first search tests them in.  The U_pq kernel
    lists the coordinates and the triples in the same order, but a
    triple's l in another (it adds S_r U_pq before U_pq S_r), so the order
    is pinned by its digest."""
    f = FIELDS[name]
    table, params = _census_table(f, n)
    bad, decode = oracle.cube_coefficients(f, table, table, params)
    expected = list(dict.fromkeys(decode(c) for cs in bad.values() for c in cs.values()))
    got_params, conditions = matched_pair._abelian_pair_conditions(f, n)
    assert got_params == params
    assert len(conditions) == len(expected) and set(conditions) == set(expected)
    digest = hashlib.sha256("\n".join(map(str, conditions)).encode()).hexdigest()[:16]
    assert (len(conditions), digest) == _CENSUS_ORDER[name, n]


def test_each_commutator_is_built_once(monkeypatch):
    """On Sym_4 (dim 10) every commutator [S_r, S_t] comes from one
    _commutator call with r < t: none twice, none with r = t, at most
    n(n - 1)/2 in all; the coefficients still match the oracle's."""
    built = []
    inner = identities._commutator

    def counted(S, r, t, nonzero):
        built.append((r, t))
        return inner(S, r, t, nonzero)

    monkeypatch.setattr(identities, "_commutator", counted)
    for f in (QQ, FIELDS["F7"]):
        sym = _sym_table(f, 4)
        n = len(sym)
        for mul in (sym, _perturbed(random.Random(4), f, sym)):
            built.clear()
            _same_coefficients(f, mul, mul)
            assert built and all(r < t for r, t in built)
            assert len(set(built)) == len(built) <= n * (n - 1) // 2
