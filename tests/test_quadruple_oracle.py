"""quadruple_check against the six block conditions written out one by one
(tests/slow_oracles.py).

quadruple_check reads C1-C6 off the homomorphism residual on the two
pairs' product tables.  Its `violated` tuple must equal the oracle's on
pairs that need not be matched, on maps between pairs of different shapes,
and on the inclusion of a large sum of the catalog pairs into its double.
"""

import itertools
import random
from fractions import Fraction

import pytest

from jalg import (
    Algebra,
    Field,
    LeftAction,
    LinearMap,
    MatchedPair,
    MorphismQuadruple,
    QQ,
    RightAction,
    bicross,
    bicross_table,
    catalog,
    map_to_quadruple,
    quadruple_check,
)
from slow_oracles import blockwise_quadruple_check, pair_product

F5, F7 = Field(5), Field(7)
CATALOG_PAIRS = ("J5-pair", "J7-pair", "J17-pair", "defmap-pair")


def _scalar(rng, f, zero_probability):
    if rng.random() < zero_probability:
        return 0
    if f.characteristic:
        return rng.randrange(1, f.characteristic)
    return Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))


def _table(rng, f, n, zero_probability):
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sc[i][j] = sc[j][i] = [_scalar(rng, f, zero_probability) for _ in range(n)]
    return sc


def _random_pair(rng, f, na, nv, zero_probability):
    """Random tables and actions; the pair is usually not matched."""
    A = Algebra(f, [f"a{i}" for i in range(na)], _table(rng, f, na, zero_probability))
    V = Algebra(f, [f"x{i}" for i in range(nv)], _table(rng, f, nv, zero_probability))

    def tensor(out):
        return [[[_scalar(rng, f, zero_probability) for _ in range(out)] for _ in range(na)] for _ in range(nv)]

    return MatchedPair(A, V, RightAction(V, A, tensor(nv)), LeftAction(V, A, tensor(na)))


def _block(rng, f, n, m, zero_probability):
    cols = [[_scalar(rng, f, zero_probability) for _ in range(m)] for _ in range(n)]
    return LinearMap(f, n, m, cols)


def _random_quadruple(rng, src, tgt, zero_probability):
    f = src.A.field
    na, nv, ma, mv = src.A.dim, src.V.dim, tgt.A.dim, tgt.V.dim
    return MorphismQuadruple(
        src,
        tgt,
        _block(rng, f, na, ma, zero_probability),
        _block(rng, f, na, mv, zero_probability),
        _block(rng, f, nv, ma, zero_probability),
        _block(rng, f, nv, mv, zero_probability),
    )


def _agrees(qd):
    got = quadruple_check(qd)
    want = blockwise_quadruple_check(qd)
    assert got == want, (qd.source, qd.target, got, want)
    return got.violated


@pytest.mark.parametrize("f", [QQ, F5, F7], ids=repr)
def test_random_pairs_and_maps_name_the_same_conditions(f):
    """Source and target drawn independently, dims (1..3, 1..3) each, so
    most blocks are rectangular; sparse tables and maps make single
    conditions fail on their own."""
    rng = random.Random(5000 + f.characteristic)
    seen = set()
    for _ in range(160):
        q = rng.choice([0.3, 0.6, 0.85])
        src = _random_pair(rng, f, rng.randint(1, 3), rng.randint(1, 3), q)
        if rng.random() < 0.25:
            tgt = src
        else:
            tgt = _random_pair(rng, f, rng.randint(1, 3), rng.randint(1, 3), q)
        for _ in range(4):
            seen.add(_agrees(_random_quadruple(rng, src, tgt, rng.choice([0.5, 0.8, 0.95]))))
    # the suite reaches a passing map, every single condition alone, and
    # each condition both violated and satisfied
    assert () in seen
    for name in ("C1", "C2", "C3", "C4", "C5", "C6"):
        assert (name,) in seen
        assert any(name not in v for v in seen if v)


def _direct_sum(pairs):
    """The block sum of matched pairs: A and V are the sums of the factors,
    and each action acts within its own summand."""
    f = pairs[0].A.field
    na = sum(mp.A.dim for mp in pairs)
    nv = sum(mp.V.dim for mp in pairs)

    def block_table(algebras):
        n = sum(alg.dim for alg in algebras)
        sc = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
        off = 0
        for alg in algebras:
            for i, j in itertools.product(range(alg.dim), repeat=2):
                sc[off + i][off + j][off : off + alg.dim] = alg.sc[i][j]
            off += alg.dim
        return sc

    def block_tensor(side, out_dim):
        tensor = [[[f.zero] * out_dim for _ in range(na)] for _ in range(nv)]
        a_off = v_off = 0
        for mp in pairs:
            act = getattr(mp, side)
            o_off = a_off if side == "left" else v_off
            o_dim = mp.A.dim if side == "left" else mp.V.dim
            for x, a in itertools.product(range(mp.V.dim), range(mp.A.dim)):
                tensor[v_off + x][a_off + a][o_off : o_off + o_dim] = act.tensor[x][a]
            a_off += mp.A.dim
            v_off += mp.V.dim
        return tensor

    A = Algebra(f, [f"a{i}" for i in range(na)], block_table([mp.A for mp in pairs]))
    V = Algebra(f, [f"x{i}" for i in range(nv)], block_table([mp.V for mp in pairs]))
    return MatchedPair(
        A, V, RightAction(V, A, block_tensor("right", nv)), LeftAction(V, A, block_tensor("left", na))
    )


@pytest.mark.parametrize("f", [QQ, F7], ids=repr)
def test_inclusion_of_the_catalog_sum_into_its_double(f):
    pairs = [catalog(name, field=f) for name in CATALOG_PAIRS]
    src, tgt = _direct_sum(pairs), _direct_sum(pairs * 2)
    assert (src.A.dim, src.V.dim, tgt.A.dim, tgt.V.dim) == (10, 8, 20, 16)

    def block(n, m, include):
        return LinearMap(f, n, m, [[int(include and k == j) for k in range(m)] for j in range(n)])

    blocks = [
        block(10, 20, True), block(10, 16, False), block(8, 20, False), block(8, 16, True)
    ]
    assert _agrees(MorphismQuadruple(src, tgt, *blocks)) == ()
    # one changed entry in one block at a time breaks some of C1-C6
    rng = random.Random(77)
    seen = set()
    for _ in range(12):
        k = rng.randrange(4)
        cols = [list(col) for col in blocks[k].cols]
        col = rng.randrange(len(cols))
        cols[col][rng.randrange(len(cols[col]))] += 1
        changed = list(blocks)
        changed[k] = LinearMap(f, blocks[k].source_dim, blocks[k].target_dim, cols)
        seen.add(_agrees(MorphismQuadruple(src, tgt, *changed)))
    assert len(seen) > 2 and () not in seen


def test_named_violation_matches_the_oracle():
    mp = catalog("defmap-pair")
    E = bicross(mp).product
    psi = LinearMap.from_images(
        E, E, {"a": {"a": 2}, "b": {"b": 2}, "u": {"u": 1}, "v": {"v": 1}}
    )
    violated = _agrees(map_to_quadruple(psi, mp, mp))
    assert "C1" in violated


def test_product_tables_are_per_pair():
    """Each pair builds its own table, matching bicross_table; a map between
    two pairs reads each side's table, never the other's."""
    rng = random.Random(3)
    first = _random_pair(rng, F5, 2, 1, 0.3)
    second = _random_pair(rng, F5, 2, 1, 0.3)
    twin = MatchedPair(first.A, first.V, first.right, first.left)
    assert first.product_sparse() is first.product_sparse()
    assert first.product_sparse() is not second.product_sparse()
    assert twin.product_sparse() is not first.product_sparse()
    for mp in (first, second, twin):
        assert pair_product(mp) == bicross_table(mp).sc
    assert first.product_sparse() != second.product_sparse()
    for src, tgt in ((first, second), (second, first), (first, twin)):
        for _ in range(20):
            _agrees(_random_quadruple(rng, src, tgt, 0.5))
