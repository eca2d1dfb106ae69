"""End-to-end checks of every published result, one test per criterion.

Each test prints one `[criterion NN] PASS` line when it succeeds (visible
with `pytest -s`); a failure shows up as an ordinary pytest failure.  All
comparisons are exact; the stated runtime caps are asserted where given.
"""

import itertools
import random
import time

import pytest

from jalg import (
    Algebra,
    Factorization,
    Field,
    LeftAction,
    LinearMap,
    MatchedPair,
    QQ,
    RightAction,
    bicross,
    bicross_table,
    canonical_pair,
    catalog,
    complement_check,
    complement_recover,
    deformation_families,
    enumerate_abelian_pairs,
    enumerate_deformations,
    equiv_check,
    factorization_index,
    graph_complement,
    hom_check,
    iso_search,
    map_to_quadruple,
    quadruple_check,
    r_deform,
    subalgebra_check,
)
import slow_oracles as oracle
from slow_oracles import blockwise_quadruple_check, unfiltered_iso_scan

F5 = Field(5)


def _fresh(algebra):
    """Copy without cached verdicts, for honest timing."""
    return Algebra(algebra.field, algebra.basis, algebra.sc, params=algebra.params)


def test_criterion_01_catalog_validity():
    """The four product tables and both small factors satisfy the cube law;
    all checks together run in under a second."""
    names = ["J5", "J7", "J17", "defmap-J", "A2", "V-abelian-2"]
    algebras = [_fresh(catalog(n)) for n in names]
    t0 = time.perf_counter()
    for A in algebras:
        assert A.jordan_check().ok, A.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"jordan checks took {elapsed:.3f}s"
    print("\n[criterion 01] PASS")


def test_criterion_02_bicrossed_reconstruction():
    """The two-sided product of each bundled pair reproduces the bundled
    product table entry for entry."""
    for pair_name, product_name in (
        ("J5-pair", "J5"),
        ("J7-pair", "J7"),
        ("J17-pair", "J17"),
    ):
        mp = catalog(pair_name)
        E = bicross(mp).product
        target = catalog(product_name)
        assert E.basis == target.basis, pair_name
        assert E.sc == target.sc, pair_name
    print("\n[criterion 02] PASS")


def test_criterion_03_round_trips():
    """Splitting a product recovers its pair; reading a graph complement
    recovers its deformation map."""
    for name in ("defmap-pair", "J5-pair", "J7-pair", "J17-pair"):
        mp = catalog(name)
        bp = bicross(mp)
        fact = Factorization(bp.product, bp.a_embedding, bp.v_embedding)
        assert canonical_pair(fact) == mp, name

    mp5 = catalog("defmap-pair", field=F5)
    maps = enumerate_deformations(mp5)
    assert len(maps) == 20
    for r in maps:
        gc = graph_complement(mp5, r)
        back = complement_recover(
            gc.extension.product,
            gc.extension.a_embedding,
            gc.extension.v_embedding,
            gc.subspace,
        )
        assert back.cols == r.cols
    print("\n[criterion 03] PASS")


def test_criterion_04_pair_axioms_iff_product_cube_law():
    """Exhaustively over F5 with two 1-dim factors: the pair conditions hold
    exactly when the combined product satisfies the cube law.  The pair side
    is the expansion oracle, since verify() itself decides a PASS by the
    product's cube law.  625 combos, under ten seconds."""
    t0 = time.perf_counter()
    matched = jordan_products = 0
    for s, t, wr, wl in itertools.product(range(5), repeat=4):
        A = Algebra.from_products(F5, ("a",), {("a", "a"): {"a": s}})
        V = Algebra.from_products(F5, ("x",), {("x", "x"): {"x": t}})
        mp = MatchedPair(
            A, V, RightAction(V, A, [[[wr]]]), LeftAction(V, A, [[[wl]]])
        )
        pair_ok = oracle.verify(mp).ok
        product_ok = bicross_table(mp).jordan_check().ok
        assert pair_ok == product_ok, (s, t, wr, wl)
        matched += pair_ok
        jordan_products += product_ok
    elapsed = time.perf_counter() - t0
    assert matched == jordan_products == 89
    assert elapsed < 10.0, f"scan took {elapsed:.3f}s"
    print(f"\n[criterion 04] PASS ({matched} matched of 625, {elapsed:.2f}s)")


def test_criterion_05_abelian_classification():
    """Over F5 with a 2-dim abelian base and a 1-dim abelian complement, the
    valid pairs are exactly the (0, D) with D cubing to zero."""
    census = enumerate_abelian_pairs(2, F5)
    assert census.candidates == 5 ** 6
    found = {(lam, cols) for lam, cols, _ in census.pairs}

    def cube_is_zero(rows):
        m = rows
        for _ in range(2):
            m = [
                [sum(m[i][k] * rows[k][j] for k in range(2)) % 5 for j in range(2)]
                for i in range(2)
            ]
        return all(c == 0 for row in m for c in row)

    predicted = set()
    for lam in itertools.product(range(5), repeat=2):
        for flat in itertools.product(range(5), repeat=4):
            rows = [[flat[0], flat[1]], [flat[2], flat[3]]]
            if lam == (0, 0) and cube_is_zero(rows):
                cols = tuple(tuple(rows[i][j] for i in range(2)) for j in range(2))
                predicted.add((lam, cols))
    assert found == predicted
    assert len(found) == 25
    print(f"\n[criterion 05] PASS ({len(found)} pairs of {census.candidates})")


def test_criterion_06_deformation_families_and_enumeration():
    """The six parametric families satisfy the deformation identity for the
    symbolic parameter; over F5 their specializations are the complete
    enumeration (20 maps).  Under five seconds."""
    t0 = time.perf_counter()
    families_q = deformation_families(QQ)
    assert sorted(families_q) == ["def1", "def2", "def3", "def4", "def5", "def6"]
    for key, fam in families_q.items():
        verdict = fam.check()
        assert verdict.ok, (key, verdict.describe())

    mp5 = catalog("defmap-pair", field=F5)
    enumerated = {r.cols for r in enumerate_deformations(mp5)}
    assert len(enumerated) == 20
    specialized = set()
    for fam in deformation_families(F5).values():
        for value in range(5):
            specialized.add(fam.substitute({"alpha": value}).cols)
    assert specialized == enumerated
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"families + enumeration took {elapsed:.3f}s"
    print(f"\n[criterion 06] PASS (20 maps, {elapsed:.2f}s)")


def test_criterion_07_deformed_product_tables():
    """Two pinned deformed products: a weighted half-action table and a
    one-parameter family."""
    mp = catalog("defmap-pair")
    families = deformation_families(QQ)

    B5 = r_deform(mp, families["def5"]).substitute_params({"alpha": 0})
    target = catalog("V3")  # u.u = u, u.v = v/2, v.v = 0
    assert B5.basis == target.basis
    assert B5.sc == target.sc

    B3 = r_deform(mp, families["def3"])
    assert B3.params == ("alpha",)
    assert B3.format_table() == "u u = u\nu v = v\nv v = (alpha) v"
    print("\n[criterion 07] PASS")


def test_criterion_08_factorization_index():
    """The complement classification over F5: twenty maps, four classes,
    representatives matching the four catalog tables, and the equivalence
    partition equal to the isomorphism partition.  Under thirty seconds."""
    t0 = time.perf_counter()
    mp = catalog("defmap-pair", field=F5)
    report = factorization_index(mp)
    assert report.index == 4
    assert len(report.maps) == 20
    assert sorted(len(c) for c in report.classes) == [1, 1, 2, 16]

    # representatives realize the four catalog multiplication patterns
    targets = {
        "V": mp.V,
        "V1": catalog("V1", field=F5),
        "V2": catalog("V2", field=F5),
        "V3": catalog("V3", field=F5),
    }
    matched_targets = set()
    for rep_index in report.representatives:
        B = r_deform(mp, report.maps[rep_index])
        hits = [n for n, tgt in targets.items() if iso_search(B, tgt).is_isomorphic]
        assert len(hits) == 1
        matched_targets.add(hits[0])
    assert matched_targets == set(targets)

    # the equivalence partition equals the isomorphism partition, computed
    # here independently by pairwise iso of the deformed products, with the
    # unfiltered scan of all p^4 matrices rather than the library's search
    deformed = [r_deform(mp, r) for r in report.maps]
    iso_classes: list[list[int]] = []
    for i, B in enumerate(deformed):
        for group in iso_classes:
            if unfiltered_iso_scan(B, deformed[group[0]]).is_isomorphic:
                group.append(i)
                break
        else:
            iso_classes.append([i])
    assert {frozenset(c) for c in report.classes} == {
        frozenset(g) for g in iso_classes
    }

    # every witness certifies its membership
    for ci, cls in enumerate(report.classes):
        rep = report.maps[report.representatives[ci]]
        for i in cls:
            assert equiv_check(mp, report.maps[i], rep, report.witnesses[i])

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"classification took {elapsed:.3f}s"
    print(f"\n[criterion 08] PASS (index = {report.index}, {elapsed:.2f}s)")


def test_criterion_09_morphism_correspondence():
    """For every matched pair with two 1-dim factors over F5 and every one of
    the 625 linear self-maps of the product, the block-map conditions
    (written out one by one in the oracle) agree with the direct
    homomorphism check, and quadruple_check names the same violations."""
    t0 = time.perf_counter()
    pairs = []
    for s, t, wr, wl in itertools.product(range(5), repeat=4):
        A = Algebra.from_products(F5, ("a",), {("a", "a"): {"a": s}})
        V = Algebra.from_products(F5, ("x",), {("x", "x"): {"x": t}})
        mp = MatchedPair(
            A, V, RightAction(V, A, [[[wr]]]), LeftAction(V, A, [[[wl]]])
        )
        if mp.verify(stop_early=True).ok:
            pairs.append(mp)
    assert len(pairs) == 89

    checked = 0
    for mp in pairs:
        E = bicross(mp).product
        for flat in itertools.product(range(5), repeat=4):
            psi = LinearMap(F5, 2, 2, [[flat[0], flat[1]], [flat[2], flat[3]]])
            qd = map_to_quadruple(psi, mp, mp)
            direct = hom_check(psi, E, E)
            oracle = blockwise_quadruple_check(qd)
            assert direct == oracle.ok, (mp, flat)
            assert quadruple_check(qd).violated == oracle.violated, (mp, flat)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 89 * 625
    print(f"\n[criterion 09] PASS ({checked} maps, {elapsed:.2f}s)")


# sampling plan for criterion 10: (dims of the two factors, probability that
# a tensor entry is zero, number of accepted pairs to collect)
SAMPLING_PLAN = (
    ((1, 1), 0.5, 80),
    ((2, 1), 0.75, 40),
    ((1, 2), 0.75, 40),
    ((2, 2), 0.85, 40),
)
SAMPLING_SEED = 777


def _sparse_entry(rng, zero_probability):
    if rng.random() < zero_probability:
        return 0
    return rng.randrange(1, 5)


def _random_symmetric_table(rng, n, q):
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cell = tuple(_sparse_entry(rng, q) for _ in range(n))
            sc[i][j] = cell
            sc[j][i] = cell
    return sc


def _random_pair(rng, na, nv, q):
    A = Algebra(F5, tuple(f"a{i}" for i in range(na)), _random_symmetric_table(rng, na, q))
    V = Algebra(F5, tuple(f"x{i}" for i in range(nv)), _random_symmetric_table(rng, nv, q))
    right = RightAction(
        V,
        A,
        [
            [[_sparse_entry(rng, q) for _ in range(nv)] for _ in range(na)]
            for _ in range(nv)
        ],
    )
    left = LeftAction(
        V,
        A,
        [
            [[_sparse_entry(rng, q) for _ in range(na)] for _ in range(na)]
            for _ in range(nv)
        ],
    )
    return MatchedPair(A, V, right, left)


def test_criterion_10_randomized_deformation_suite():
    """200 rejection-sampled matched pairs over F5: every enumerated
    deformation map gives a product satisfying the cube law and a graph that
    is a genuine complement."""
    rng = random.Random(SAMPLING_SEED)
    accepted = []
    for (na, nv), q, count in SAMPLING_PLAN:
        got = 0
        while got < count:
            mp = _random_pair(rng, na, nv, q)
            if mp.verify(stop_early=True).ok:
                accepted.append(mp)
                got += 1
    assert len(accepted) == 200

    total_maps = 0
    for mp in accepted:
        for r in enumerate_deformations(mp):
            B = r_deform(mp, r)
            assert B.jordan_check().ok
            gc = graph_complement(mp, r)
            E = gc.extension.product
            assert subalgebra_check(E, gc.subspace)
            assert complement_check(E, gc.extension.a_embedding, gc.subspace)
            total_maps += 1
    # every pair admits at least the zero map
    assert total_maps >= 200
    print(f"\n[criterion 10] PASS (200 pairs, {total_maps} maps)")
