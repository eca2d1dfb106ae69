"""The fast searches against their slow oracles (tests/slow_oracles.py).

factorization_index places each map with iso_search against the class
representatives, and iso_search over F_p scans only the matrices whose
columns share the element keys of the basis.  Both must give exactly what
the brute-force procedures give: the same classes and witnesses, the same
verdicts, witnesses, certificates and budget notes.
"""

import itertools
import random

import pytest

from jalg import Algebra, Field, LinearMap, catalog, factorization_index, iso_search, write_algebra
from jalg.cli import main
from slow_oracles import scan_index, sigma_loop_classes, unfiltered_iso_scan

PLANAR = ("V1", "V2", "V3", "V-abelian-2")


def _random_table(rng, f, zero_probability):
    p = f.characteristic
    sc = [[None, None], [None, None]]
    for i, j in ((0, 0), (0, 1), (1, 1)):
        cell = [0 if rng.random() < zero_probability else rng.randrange(p) for _ in range(2)]
        sc[i][j] = sc[j][i] = cell
    return Algebra(f, ("u", "v"), sc)


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
