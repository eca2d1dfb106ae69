"""The deformation layer against its term-by-term oracles.

deformation_check, r_deform and equiv_check read (r(x), x)(r(y), y) off the
pair's product table.  tests/slow_oracles.py keeps the formulas written out
term by term; the two must give the same failure tuples, the same deformed
tables and the same equivalence verdicts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from jalg import (
    QQ,
    DeformationMap,
    Field,
    LinearMap,
    catalog,
    deformation_check,
    deformation_families,
    enumerate_deformations,
    equiv_check,
    factorization_index,
    r_deform,
)
from jalg.poly import PolyRing
from slow_oracles import deformation_residuals, deformed_table, equiv_holds
from test_acceptance import SAMPLING_PLAN, SAMPLING_SEED, _random_pair

CATALOG_CASES = [
    (name, p) for name in ("defmap-pair", "J7-pair", "J17-pair") for p in (5, 7)
]


def _oracle_failures(mp, r):
    R = r.ring
    basis = mp.V.basis
    return tuple(
        (basis[i], basis[j], tuple(R.format(c) for c in res))
        for i, j, res in deformation_residuals(mp, r)
        if not all(R.is_zero(c) for c in res)
    )


def _same_check(mp, r):
    """deformation_check against the oracle; returns the verdict."""
    verdict = deformation_check(mp, r)
    assert verdict.failures == _oracle_failures(mp, r)
    assert verdict.ok == (not verdict.failures)
    return verdict


def _same_table(mp, r):
    B = r_deform(mp, r)
    assert B.sc == deformed_table(mp, r)


def _same_equiv(mp, r, s, sigma):
    got = equiv_check(mp, r, s, sigma)
    assert got == equiv_holds(mp, r, s, sigma)
    return got


def _random_map(rng, mp):
    p = mp.A.field.characteristic
    return DeformationMap(
        mp, [[rng.randrange(p) for _ in range(mp.A.dim)] for _ in range(mp.V.dim)]
    )


def _random_sigma(rng, f, n):
    while True:
        p = f.characteristic
        sigma = LinearMap(f, n, n, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if sigma.is_invertible():
            return sigma


@pytest.mark.parametrize("name,p", CATALOG_CASES)
def test_catalog_pairs_match_oracles(name, p):
    """Every deformation map passes with the oracle's table; seeded random
    maps outside the enumeration fail with the oracle's residuals."""
    mp = catalog(name, field=Field(p))
    maps = enumerate_deformations(mp)
    for r in maps:
        assert _same_check(mp, r).ok
        _same_table(mp, r)
    found = {r.cols for r in maps}
    rng = random.Random(p * 1000 + len(name))
    failed = 0
    for _ in range(60):
        r = _random_map(rng, mp)
        verdict = _same_check(mp, r)
        assert verdict.ok == (r.cols in found)
        failed += not verdict.ok
    assert failed > 0


@pytest.mark.parametrize("name,p", CATALOG_CASES)
def test_witness_and_non_witness_sigma(name, p):
    """The index's witnesses pass both; other sigmas, against the class
    representative and across classes, get the oracle's verdict."""
    f = Field(p)
    mp = catalog(name, field=f)
    report = factorization_index(mp)
    n = mp.V.dim
    rng = random.Random(p)
    rejected = 0
    for cls in report.classes:
        rep = report.maps[cls[0]]
        for idx in cls:
            r = report.maps[idx]
            assert _same_equiv(mp, r, rep, report.witnesses[idx])
            rejected += not _same_equiv(mp, r, rep, _random_sigma(rng, f, n))
    for a, b in itertools.combinations(report.representatives, 2):
        for sigma in (LinearMap.identity(f, n), _random_sigma(rng, f, n)):
            assert not _same_equiv(mp, report.maps[a], report.maps[b], sigma)
    assert rejected > 0


def test_sampled_pairs_match_oracles():
    """The 200 pairs of acceptance criterion 10: every enumerated map, one
    seeded random map per pair, and equivalence between consecutive maps."""
    rng = random.Random(SAMPLING_SEED)
    accepted = []
    for (na, nv), q, count in SAMPLING_PLAN:
        got = 0
        while got < count:
            mp = _random_pair(rng, na, nv, q)
            if mp.verify(stop_early=True).ok:
                accepted.append(mp)
                got += 1
    draw = random.Random(SAMPLING_SEED + 1)
    for mp in accepted:
        maps = enumerate_deformations(mp)
        for r in maps:
            assert _same_check(mp, r).ok
            _same_table(mp, r)
        r = _random_map(draw, mp)
        assert _same_check(mp, r).ok == (r in maps)
        f, n = mp.A.field, mp.V.dim
        for r, s in zip(maps, maps[1:]):
            _same_equiv(mp, r, s, LinearMap.identity(f, n))
            _same_equiv(mp, r, s, _random_sigma(draw, f, n))


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["Q", "F5"])
def test_parametric_families_match_oracles(field):
    """The six alpha families pass with the oracle's tables; parametric
    non-deformation maps fail with its residuals; equivalence between the
    families runs over the polynomial ring."""
    families = deformation_families(field)
    mp = next(iter(families.values())).mp
    for r in families.values():
        assert _same_check(mp, r).ok
        _same_table(mp, r)
    alpha = PolyRing(field, ("alpha",)).var("alpha")
    for images in (
        {"u": {"a": 1}, "v": {"a": alpha}},
        {"u": {"a": alpha}, "v": {"b": 1}},
        {"u": {"a": 1, "b": alpha}, "v": {"a": 2}},
    ):
        r = DeformationMap.from_images(mp, images, ("alpha",))
        assert not _same_check(mp, r).ok
    half = Fraction(1, 2) if field is QQ else 3
    sigmas = [
        LinearMap.identity(field, 2),
        LinearMap(field, 2, 2, [[1, 0], [0, 2]]),
        LinearMap(field, 2, 2, [[1, half], [0, 1]]),
        LinearMap(field, 2, 2, [[0, 1], [1, 0]]),
    ]
    accepted = 0
    for r, s in itertools.product(families.values(), repeat=2):
        for sigma in sigmas:
            accepted += _same_equiv(mp, r, s, sigma)
    assert accepted > 0
