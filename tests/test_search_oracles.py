"""The fast searches against their slow oracles (tests/slow_oracles.py).

factorization_index places each map with iso_search against the class
representatives, and iso_search over F_p scans only the matrices whose
columns share the element keys of the basis, reading each key's elements
off one operator per line through the origin.  Both must give exactly what
the brute-force procedures give: the same classes and witnesses, the same
verdicts, witnesses, certificates and budget notes, against an unfiltered
scan at dimension 2 and against buckets that key every element at
dimensions 1-3.  Over Q the same walk reads the height box's elements of
each basis key, and must give the first witness of a scan of every matrix
of that height.
"""

import itertools
import random
from fractions import Fraction

import pytest

from jalg import QQ, Algebra, Field, LinearMap, catalog, factorization_index, iso_search, write_algebra
from jalg.cli import main
from slow_oracles import (
    bounded_q_search,
    bucketed_iso_scan,
    element_buckets,
    scan_index,
    sigma_loop_classes,
    unfiltered_iso_scan,
)

PLANAR = ("V1", "V2", "V3", "V-abelian-2")


def _random_table(rng, f, zero_probability, n=2):
    p = f.characteristic
    sc = [[None] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        cell = [0 if rng.random() < zero_probability else rng.randrange(p) for _ in range(n)]
        sc[i][j] = sc[j][i] = cell
    return Algebra(f, ("u", "v", "w")[:n], sc)


def _rebased(rng, A):
    """A in a random basis P; P is then an isomorphism from the result onto A."""
    f = A.field
    n = A.dim
    while True:
        P = LinearMap(f, n, n, [[rng.randrange(f.characteristic) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            break
    back = P.inverse()
    sc = [
        [back.apply(A.mul_coords(list(P.cols[i]), list(P.cols[j]))) for j in range(n)]
        for i in range(n)
    ]
    return Algebra(f, A.basis, sc)


def _tables(p):
    """Seeded 2-dim tables over F_p: rebased Jordan catalog entries, a
    sparse and a dense random table (mostly not Jordan), each followed by
    a rebasing of itself."""
    rng = random.Random(p)
    f = Field(p)
    bases = [_rebased(rng, catalog(name, field=f)) for name in ("V1", "V2", "V3")]
    bases += [_random_table(rng, f, 0.7), _random_table(rng, f, 0.0)]
    return [(B, _rebased(rng, B)) for B in bases]


def _same(A, B, budget=None):
    fast = iso_search(A, B, budget)
    slow = unfiltered_iso_scan(A, B, budget)
    assert fast == slow
    return slow


@pytest.mark.parametrize(
    "name, p", [("defmap-pair", 5), ("defmap-pair", 7), ("J5-pair", 5), ("J17-pair", 5)]
)
def test_index_matches_sigma_loop(name, p):
    mp = catalog(name, field=Field(p))
    report = factorization_index(mp)
    classes, witnesses = sigma_loop_classes(mp, report.maps)
    assert [list(c) for c in report.classes] == classes
    assert report.witnesses == witnesses

    # the iso verdicts that place each member and separate the
    # representatives, against the full scan
    for cls in report.classes:
        for idx in cls[1:]:
            assert _same(report.deformed[idx], report.deformed[cls[0]]).is_isomorphic
    for a, b in itertools.permutations(report.representatives, 2):
        assert _same(report.deformed[a], report.deformed[b]).kind == "non-isomorphic"


@pytest.mark.parametrize("p", [5, 7, 13])
def test_iso_scan_matches_unfiltered_scan(p):
    tables = _tables(p)
    jordan = [B.is_jordan for B, _ in tables]
    assert jordan[:3] == [True] * 3 and not all(jordan)
    for B, C in tables:
        verdict = _same(B, C)
        assert verdict.is_isomorphic
        _same(C, B)
    for (B, _), (C, _) in zip(tables, tables[1:]):
        _same(B, C)


@pytest.mark.parametrize("x, y", list(itertools.permutations(PLANAR, 2)))
def test_planar_catalog_verdicts_match_unfiltered_scan(x, y):
    f = Field(7)
    assert _same(catalog(x, field=f), catalog(y, field=f)).kind == "non-isomorphic"


@pytest.mark.parametrize("p", [5, 13])
def test_budget_notes_around_the_witness_rank(p):
    for B, C in _tables(p):
        found = unfiltered_iso_scan(B, C)
        rank = scan_index(found, p) + 1  # candidates tried, the witness included
        assert _same(B, C, budget=rank) == found
        if rank > 1:
            below = _same(B, C, budget=rank - 1)
            assert below.note == f"budget exhausted after {rank - 1} of {p ** 4} candidates"


def test_budget_notes_on_a_non_isomorphic_pair():
    f = Field(5)
    A, B = catalog("V1", field=f), catalog("V2", field=f)
    assert _same(A, B, budget=624).kind == "unknown"
    assert _same(A, B, budget=625).kind == "non-isomorphic"
    assert _same(A, B, budget=1).note == "budget exhausted after 1 of 625 candidates"


def test_cli_budget_note_matches_unfiltered_scan(tmp_path, capsys):
    B, C = _tables(13)[1]
    rank = scan_index(unfiltered_iso_scan(B, C), 13) + 1
    paths = []
    for name, alg in (("b", B), ("c", C)):
        path = tmp_path / f"{name}.jalg"
        path.write_text(write_algebra(alg))
        paths.append(str(path))
    assert main(["iso", *paths, "--budget", str(rank - 1)]) == 3
    assert capsys.readouterr().out == (
        f"verdict: unknown\nbudget exhausted after {rank - 1} of 28561 candidates\n"
    )
    assert main(["iso", *paths, "--budget", str(rank)]) == 0
    assert capsys.readouterr().out.startswith("verdict: isomorphic\nwitness rows: ")


# Jordan tables of dimensions 1 and 3 (dimension 2 is the planar catalog)
SMALL_JORDAN = [
    {("u", "u"): {"u": 1}},
    {},
    {("u", "u"): {"u": 1}, ("v", "v"): {"v": 1}, ("w", "w"): {"w": 1}},
    {("u", "u"): {"u": 1}, ("u", "v"): {"v": 1}, ("w", "w"): {"w": 1}},
    {("u", "u"): {"u": 1}, ("v", "v"): {"v": 1}, ("u", "w"): {"w": Fraction(1, 2)},
     ("v", "w"): {"w": Fraction(1, 2)}},
]


def _small_tables(p):
    """Seeded tables over F_p of dimensions 1-3, each followed by a rebasing
    of itself: the Jordan tables above, the planar catalog algebras, and a
    sparse and a dense random table per dimension (mostly not Jordan)."""
    rng = random.Random(f"small-{p}")
    f = Field(p)
    bases = []
    for products in SMALL_JORDAN:
        basis = sorted({lab for pair in products for lab in pair}) or ["u"]
        bases.append(Algebra.from_products(f, basis, products))
    bases += [catalog(name, field=f) for name in PLANAR]
    bases += [_random_table(rng, f, zp, n) for n in (1, 2, 3) for zp in (0.7, 0.0)]
    return [(B, _rebased(rng, B)) for B in bases]


def _same_as_buckets(A, B, buckets, budget=None):
    fast = iso_search(A, B, budget)
    slow = bucketed_iso_scan(A, B, budget, buckets[B])
    assert fast == slow
    return slow


class _Buckets(dict):
    """element_buckets per table (Algebras hash by table), each built once
    in a test."""

    def __missing__(self, B):
        self[B] = element_buckets(B)
        return self[B]


@pytest.mark.parametrize("p", [5, 7, 13])
def test_planar_catalog_verdicts_match_full_buckets(p):
    f = Field(p)
    buckets = _Buckets()
    for x, y in itertools.permutations(PLANAR, 2):
        A, B = (Algebra(f, C.basis, C.sc) for C in (catalog(x, field=f), catalog(y, field=f)))
        assert _same_as_buckets(A, B, buckets).kind == "non-isomorphic"


@pytest.mark.parametrize("p", [5, 7, 13])
def test_rebasings_match_full_buckets_with_budgets_around_the_witness(p):
    """Seeded rebasings of dims 1-3, Jordan or not, both ways; neighbouring
    tables against each other; and each found witness again with a budget
    that stops just before it and one that lets it be found."""
    tables = _small_tables(p)
    assert {B.dim for B, _ in tables} == {1, 2, 3}
    assert any(not B.is_jordan for B, _ in tables)
    buckets = _Buckets()
    for B, C in tables:
        for X, Y in ((B, C), (C, B)):
            found = _same_as_buckets(X, Y, buckets)
            assert found.is_isomorphic
            rank = scan_index(found, p) + 1
            assert _same_as_buckets(X, Y, buckets, budget=rank) == found
            below = _same_as_buckets(X, Y, buckets, budget=rank - 1)
            assert below.note == f"budget exhausted after {rank - 1} of {p ** (X.dim ** 2)} candidates"
    for (B, _), (C, _) in zip(tables, tables[1:]):
        if B.dim == C.dim:
            _same_as_buckets(B, C, buckets)


def _integer_rebased(rng, A):
    """A over Q in a random basis P of small integers."""
    n = A.dim
    while True:
        P = LinearMap(QQ, n, n, [[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            break
    back = P.inverse()
    sc = [
        [back.apply(A.mul_coords(list(P.cols[i]), list(P.cols[j]))) for j in range(n)]
        for i in range(n)
    ]
    return Algebra(QQ, A.basis, sc)


def test_q_witness_walk_matches_the_bounded_height_scan():
    """Over Q, iso_search gives the verdict and the first witness of the
    scan of every matrix of the height (slow_oracles.bounded_q_search): on
    every ordered pair of V1, V2, V3, A2 and V-abelian-2 at heights 1 and
    2, and between each of V1-V3 and a seeded integer rebasing of it, both
    ways, at height 3.  A pair it does not find isomorphic has no witness
    in the scan either, and is told apart by its invariants or reported
    unknown at that height."""
    planar = [catalog(name) for name in ("V1", "V2", "V3", "A2", "V-abelian-2")]
    cases = [(A, B, height) for A in planar for B in planar for height in (1, 2)]
    rng = random.Random("q-rebasings")
    for A in planar[:3]:
        rebased = _integer_rebased(rng, A)
        cases += [(A, rebased, 3), (rebased, A, 3)]
    found = 0
    for A, B, height in cases:
        verdict = iso_search(A, B, budget=height)
        witness = bounded_q_search(A, B, height)
        if verdict.is_isomorphic:
            assert verdict.witness == witness
            found += 1
        else:
            assert witness is None
            assert verdict.kind == "non-isomorphic" or verdict.note == (
                f"invariants agree; no witness of height <= {height} found"
            )
    assert found >= len(planar) * 2 + 6
