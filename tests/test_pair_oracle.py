"""MatchedPair.verify against the expansion oracle (tests/slow_oracles.py).

verify() decides all ten pair axioms by one cube-law pass on the pair's
product table, and on a FAIL reads each axiom's residuals off that pass's
coefficients.  The oracle expands everything in the same pair ring: both
factors' Jordan identities, both action laws and MP1-MP6.  Both must give
equal Verdicts, equal describe() text and equal witnesses, with and
without stop_early, PASS or FAIL.  The two one-sided products of each
pair (semidirect_left and semidirect_right, also decided by verify())
must give the product or the error text of separate expansion passes:
the factors, the action law, then the renamed MP subset.  The corpus
fails each of the ten axioms over every field, and no library path
reaches the expansions.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    Field,
    LeftAction,
    MatchedPair,
    QQ,
    RightAction,
    VerificationError,
    bicross,
    bicross_table,
    catalog,
    identities,
    semidirect_left,
    semidirect_right,
)
from jalg.catalog import PAIR_NAMES
from jalg.identities import Verdict, _sparse
import slow_oracles as oracle
from test_acceptance import SAMPLING_PLAN, SAMPLING_SEED, _random_pair

F5 = Field(5)
FIELDS = {"Q": QQ, "F5": F5, "F7": Field(7)}


def _same(fast, slow):
    assert fast == slow
    assert fast.describe() == slow.describe()
    assert [f.witness() for f in fast.failures] == [f.witness() for f in slow.failures]


def _check(mp, stages=None):
    """verify() (fresh, then with stop_early) and the one-sided products of
    the pair's two actions against the oracle; returns the full verdict.
    The stage at which each one-sided product stopped is added to `stages`."""
    full = mp.verify()
    _same(full, oracle.verify(mp))
    _same(mp.verify(stop_early=True), oracle.verify(mp, stop_early=True))
    A, V = mp.A, mp.V
    for one_sided, build, action in (
        (MatchedPair(A, V, RightAction.zero(V, A), mp.left), semidirect_left, mp.left),
        (MatchedPair(A, V, mp.right, LeftAction.zero(V, A)), semidirect_right, mp.right),
    ):
        try:
            got = build(A, V, action).table_key()
        except VerificationError as exc:
            got = str(exc)
        stage, expected = _semidirect_oracle(one_sided, action._side)
        assert got == expected
        if stages is not None:
            stages.add(stage)
    return full


# the three MP axioms that survive on each side, and their one-sided names
_ONE_SIDED_NAMES = {
    "left": {"MP1": "L1", "MP4": "L2", "MP6": "L3"},
    "right": {"MP2": "R1", "MP3": "R2", "MP5": "R3"},
}


def _semidirect_oracle(mp, side):
    """(stage, outcome) of the one-sided product of mp by separate
    expansion passes: each factor's Jordan identity, the law of the
    action on `side`, then its three MP axioms renamed L1-L3 or R1-R3.
    The outcome is the product's table_key() or the error text."""
    A, V = mp.A, mp.V
    for alg in (A, V):
        if not oracle.jordan_verdict(alg.field, alg.sc, alg.params).ok:
            return "jordan", f"{alg!r} fails the Jordan identity"
    if side == "right":
        # A acts on V: acting-first indexing of the right action
        act = [[mp.right.tensor[x][a] for x in range(V.dim)] for a in range(A.dim)]
        law = oracle.action_law_verdict(A.field, A.sc, act, A.params, "a", "x", "right-action")
    else:
        law = oracle.action_law_verdict(A.field, V.sc, mp.left.tensor, A.params, "x", "a", "left-action")
    if not law.ok:
        return "action law", f"{side} action law fails:\n" + law.describe()
    tables = (A.sc, V.sc, mp.right.tensor, mp.left.tensor)
    names = _ONE_SIDED_NAMES[side]
    axioms = oracle.matched_pair_verdict(A.field, *tables, A.params, tuple(names))
    if not axioms.ok:
        renamed = [replace(f, axiom=names[f.axiom]) for f in axioms.failures]
        return "axioms", "semidirect axioms fail:\n" + Verdict(False, tuple(renamed), ()).describe()
    return "product", bicross_table(mp).table_key()


def _fresh(mp):
    """The same pair without its cached verdict."""
    return MatchedPair(mp.A, mp.V, mp.right, mp.left)


def _combos():
    """All 625 pairs of 1-dim factors over F5."""
    for s, t, wr, wl in itertools.product(range(5), repeat=4):
        A = Algebra.from_products(F5, ("a",), {("a", "a"): {"a": s}})
        V = Algebra.from_products(F5, ("x",), {("x", "x"): {"x": t}})
        yield MatchedPair(A, V, RightAction(V, A, [[[wr]]]), LeftAction(V, A, [[[wl]]]))


def test_one_dim_combos_match_oracle():
    """All 625 combos; 89 are matched."""
    assert sum(_check(mp).ok for mp in _combos()) == 89


def test_criterion_10_plan_matches_oracle():
    """Criterion 10's rejection sampler: every candidate with stop_early,
    and the 200 accepted pairs in full."""
    rng = random.Random(SAMPLING_SEED)
    accepted = 0
    for (na, nv), q, count in SAMPLING_PLAN:
        got = 0
        while got < count:
            mp = _random_pair(rng, na, nv, q)
            quick = mp.verify(stop_early=True)
            _same(quick, oracle.verify(mp, stop_early=True))
            if quick.ok:
                assert _check(_fresh(mp)).ok
                got += 1
        accepted += got
    assert accepted == 200


def _scalar(rng, f):
    if f.characteristic:
        return rng.randrange(1, f.characteristic)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _factor(rng, f, n, prefix):
    """A Jordan factor (a 2-dim catalog algebra, plus a 1-dim summand at
    n = 3), or with probability 1/4 a random symmetric table."""
    labels = tuple(f"{prefix}{i}" for i in range(n))
    sc = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        for i in range(n):
            for j in range(i, n):
                cell = [_scalar(rng, f) if rng.random() < 0.5 else f.zero for _ in range(n)]
                sc[i][j] = sc[j][i] = cell
        return Algebra(f, labels, sc)
    base = catalog(rng.choice(("V1", "V2", "V3", "A2")), field=None if f is QQ else f)
    for i in range(2):
        for j in range(2):
            sc[i][j][:2] = base.sc[i][j]
    if n == 3:
        sc[2][2][2] = rng.choice([f.zero, f.one])
    return Algebra(f, labels, sc)


def _random_unmatched(rng, f, na, nv):
    """Jordan or random factors with zero actions, one random action entry,
    or dense random actions."""
    A, V = _factor(rng, f, na, "a"), _factor(rng, f, nv, "x")
    right = [[[f.zero] * nv for _ in range(na)] for _ in range(nv)]
    left = [[[f.zero] * na for _ in range(na)] for _ in range(nv)]
    kind = rng.randrange(3)
    if kind == 1:
        tensor, out = rng.choice(((right, nv), (left, na)))
        tensor[rng.randrange(nv)][rng.randrange(na)][rng.randrange(out)] = _scalar(rng, f)
    elif kind == 2:
        for tensor in (right, left):
            for row in tensor:
                for cell in row:
                    for k in range(len(cell)):
                        if rng.random() < 0.4:
                            cell[k] = _scalar(rng, f)
    return MatchedPair(A, V, RightAction(V, A, right), LeftAction(V, A, left))


@pytest.mark.parametrize("name", FIELDS)
def test_random_pairs_match_oracle(name):
    """Seeded random pairs at dims (2, 2) and (3, 2).  The draw covers a
    product that fails while MP1-MP6 pass (a factor or an action law
    broke it), and MP failures with lawful factors and actions.  Each
    pair's bicross_table, built without coercion, has the table the
    coercing constructor builds from the dense product (oracle.pair_product)."""
    f = FIELDS[name]
    rng = random.Random("pairs-" + name)
    mp_only = mp_pass_product_fails = 0
    seen = set()
    stages = set()
    for na, nv in ((2, 2), (3, 2)):
        for _ in range(15):
            mp = _random_unmatched(rng, f, na, nv)
            built = bicross_table(mp)
            assert built.table_key() == Algebra(f, built.basis, oracle.pair_product(mp)).table_key()
            full = _check(mp, stages)
            axioms = set(full.failed_axioms())
            seen |= axioms
            if axioms and axioms <= set(identities.MP_AXIOMS):
                mp_only += 1
            if not full.ok and not axioms & set(identities.MP_AXIOMS):
                mp_pass_product_fails += 1
    assert mp_only and mp_pass_product_fails
    # every row of identities._PAIR_PIECES is read, so the oracle checks each
    assert seen == set(identities.PAIR_AXIOMS)
    # and the one-sided products stop at every stage, or are built
    assert stages == {"jordan", "action law", "axioms", "product"}


@pytest.mark.parametrize("name", FIELDS)
def test_catalog_pairs_match_oracle(name):
    """Every catalog pair, and its bicrossed product's seeded Jordan verdict
    against a fresh cube-law pass on the product table."""
    f = FIELDS[name]
    for pair_name in PAIR_NAMES:
        mp = _fresh(catalog(pair_name, field=None if f is QQ else f))
        assert _check(mp).ok
        product = bicross(mp).product
        fresh = identities.jordan_verdict(product.field, _sparse(product.sc, product.ring), product.params)
        assert fresh.ok
        _same(product.jordan_check(), fresh)


def _parametric_pairs(f):
    """x |> a = D(a) on a 2-dim abelian base with D in F[alpha]: matched
    for D = [[0, alpha], [0, 0]] (D^2 = 0), not for D = diag(alpha, 0)."""
    params = ("alpha",)
    A = Algebra(f, ("a0", "a1"), [[[f.zero] * 2] * 2] * 2, params=params)
    V = Algebra(f, ("t",), [[[f.zero]]], params=params)
    alpha = A.ring.var("alpha")
    zero = A.ring.zero
    for cols in (((zero, zero), (alpha, zero)), ((alpha, zero), (zero, zero))):
        left = LeftAction(V, A, [[list(c) for c in cols]])
        yield MatchedPair(A, V, RightAction.zero(V, A), left)


@pytest.mark.parametrize("name", ("Q", "F5"))
def test_parametric_pairs_match_oracle(name):
    assert [_check(mp).ok for mp in _parametric_pairs(FIELDS[name])] == [True, False]


def test_no_library_path_expands_the_mp_axioms(monkeypatch):
    """With the expansions (kept only in tests/slow_oracles.py) made to
    raise, verify() still reports every MP failure of the 625 combos and of
    the failing Q[alpha] pair, with and without stop_early: the reports
    come from the product's cube law."""

    def refuse(*args, **kwargs):
        raise AssertionError("slow_oracles._mp_expansions was called")

    monkeypatch.setattr(oracle, "_mp_expansions", refuse)
    mp_failures = 0
    for mp in _combos():
        full = mp.verify()
        mp_failures += bool(set(full.failed_axioms()) & set(identities.MP_AXIOMS))
        assert _fresh(mp).verify(stop_early=True).ok == full.ok
    assert mp_failures == 536
    unmatched = list(_parametric_pairs(QQ))[1]
    assert unmatched.verify().failed_axioms() == ("MP4",)
    assert unmatched.verify(stop_early=True).failed_axioms() == ("MP4",)


def _product_verdict(mp):
    """bicross_table(mp).jordan_check(), read off the coefficients of an
    earlier verify(), against jordan_check() on a fresh Algebra on the
    product's table; returns the verdict."""
    product = bicross_table(mp)
    fresh = Algebra(product.field, product.basis, product.sc, params=product.params)
    verdict = product.jordan_check()
    _same(verdict, fresh.jordan_check())
    return verdict


def test_product_verdict_reads_the_pair_coefficients_on_every_combo():
    """All 625 combos over F5, after verify() or verify(stop_early=True):
    the product's verdict, PASS or FAIL, is a fresh pass's."""
    passed = 0
    for k, mp in enumerate(_combos()):
        mp.verify(stop_early=bool(k % 2))
        passed += _product_verdict(mp).ok
    assert passed == 89


@pytest.mark.parametrize("name", ("Q", "F7"))
def test_product_verdict_reads_the_pair_coefficients_on_catalog_pairs(name):
    f = FIELDS[name]
    for pair_name in PAIR_NAMES:
        mp = _fresh(catalog(pair_name, field=None if f is QQ else f))
        assert mp.verify().ok
        assert _product_verdict(mp).ok
        assert bicross(mp).product.jordan_check() == _product_verdict(mp)


def test_product_verdict_reads_the_pair_coefficients_on_parametric_pairs():
    oks = []
    for mp in _parametric_pairs(QQ):
        mp.verify()
        oks.append(_product_verdict(mp).ok)
    assert oks == [True, False]


@pytest.mark.parametrize("name", FIELDS)
def test_full_verdict_after_stop_early_matches_oracle(name):
    """On failing pairs (random ones, the 536 failing combos over F5, the
    failing Q[alpha] pair) verify(stop_early=True), then verify(), which
    reads the first call's coefficients: each is the oracle's."""
    f = FIELDS[name]
    rng = random.Random("after-stop-early-" + name)
    pairs = [_random_unmatched(rng, f, 2, 2) for _ in range(20)]
    if f is F5:
        pairs += [mp for mp in _combos() if not _fresh(mp).verify(stop_early=True).ok]
    if f is QQ:
        pairs += list(_parametric_pairs(QQ))
    failed = 0
    for mp in pairs:
        quick = mp.verify(stop_early=True)
        _same(quick, oracle.verify(mp, stop_early=True))
        _same(mp.verify(), oracle.verify(mp))
        failed += not quick.ok
    assert failed >= 10


def test_one_cube_law_pass_per_pair_and_product(monkeypatch):
    """verify(), in either form, then the product's jordan_check() and
    bicross() run _cube_coefficients once per pair, PASS or FAIL."""
    calls = []
    inner = identities._cube_coefficients

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(identities, "_cube_coefficients", counted)
    matched = _fresh(catalog("J5-pair"))
    unmatched = list(_parametric_pairs(QQ))[1]
    for mp, stop_early in ((matched, False), (unmatched, True), (unmatched, False)):
        mp = _fresh(mp)
        calls.clear()
        mp.verify(stop_early=stop_early)
        mp.verify()
        bicross_table(mp).jordan_check()
        if mp.verify().ok:
            bicross(mp).product.jordan_check()
        assert len(calls) == 1
        assert calls[0][1] is mp.product_sparse()
