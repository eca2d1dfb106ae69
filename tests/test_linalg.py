"""Exact linear algebra over the ground fields."""

import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import Field, QQ
from jalg.linalg import identity, invert, is_invertible, nullspace, rank, rref
import slow_oracles as slow
from slow_oracles import express, mat_mul, mat_vec, solve

F5 = Field(5)

f5_matrices = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def test_rref_canonical():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    reduced, pivots = rref(QQ, rows)
    # zero rows are dropped; what remains is the canonical reduced basis
    assert reduced == [[Fraction(1), Fraction(2)]]
    assert pivots == [0]


def test_rank():
    assert rank(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert rank(F5, [[1, 2], [2, 4]]) == 1
    assert rank(F5, [[1, 2], [2, 3]]) == 2
    assert rank(QQ, []) == 0


def test_solve_unique():
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = solve(QQ, rows, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]


def test_solve_inconsistent():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert solve(QQ, rows, [Fraction(1), Fraction(3)]) is None


def test_nullspace():
    basis = nullspace(QQ, [[Fraction(1), Fraction(2)]])
    assert len(basis) == 1
    v = basis[0]
    assert QQ.add(v[0], QQ.mul(Fraction(2), v[1])) == QQ.zero
    assert nullspace(F5, [[1, 0], [0, 1]]) == []


def test_invert():
    m = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    inv = invert(QQ, m)
    assert mat_mul(QQ, m, inv) == identity(QQ, 2)
    assert invert(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) is None
    assert is_invertible(F5, [[2, 0], [0, 3]])
    assert not is_invertible(F5, [[1, 2], [2, 4]])


def test_mat_vec():
    assert mat_vec(F5, [[1, 2], [3, 4]], [1, 1]) == [3, 2]


def test_express():
    basis = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    coords = express(QQ, basis, [Fraction(3), Fraction(2)])
    assert coords == [Fraction(1), Fraction(2)]
    assert express(QQ, [[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None


@settings(deadline=None, derandomize=True)
@given(f5_matrices)
def test_solve_consistency_f5(rows):
    """A solved system reproduces its right-hand side."""
    n = len(rows)
    b = [(i + 1) % 5 for i in range(n)]
    x = solve(F5, rows, b)
    if x is not None:
        assert mat_vec(F5, rows, x) == b


@settings(deadline=None, derandomize=True)
@given(f5_matrices)
def test_invert_roundtrip_f5(rows):
    inv = invert(F5, rows)
    if inv is not None:
        n = len(rows)
        assert mat_mul(F5, rows, inv) == identity(F5, n)
        assert mat_mul(F5, inv, rows) == identity(F5, n)
    else:
        assert rank(F5, rows) < len(rows)


@settings(deadline=None, derandomize=True)
@given(f5_matrices)
def test_nullspace_annihilates_f5(rows):
    for v in nullspace(F5, rows):
        assert mat_vec(F5, rows, v) == [0] * len(rows)
    assert len(nullspace(F5, rows)) == len(rows) - rank(F5, rows)


def _random_matrix(rng, f, rows, cols):
    """A matrix with small entries, zero half the time; some rows repeat an
    earlier one or a multiple of it, and some are zero."""
    out = []
    for _ in range(rows):
        kind = rng.random()
        if out and kind < 0.2:
            c = f.coerce(rng.randint(-3, 3))
            out.append([f.mul(c, x) for x in rng.choice(out)])
        elif kind < 0.3:
            out.append([f.zero] * cols)
        else:
            out.append(
                [f.zero if rng.random() < 0.5 else f.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for _ in range(cols)]
            )
    return out


def _same(fast, slow_value):
    """Equal values of equal types, entry by entry."""
    assert fast == slow_value
    if isinstance(fast, list):
        for a, b in zip(fast, slow_value):
            _same(a, b)
    else:
        assert type(fast) is type(slow_value)


@pytest.mark.parametrize("f", [QQ, F5, Field(7)], ids=str)
def test_elimination_matches_the_field_method_oracle(f):
    """rref in plain operators against Gauss-Jordan through the Field's
    methods (tests/slow_oracles.py): equal rows and pivots, and equal
    rank, invert and nullspace results, on square, wide and tall matrices
    with zero and repeated rows, singular or not."""
    rng = random.Random(f"rref-{f}")
    singular = invertible = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, f, rows, cols)
        _same(list(rref(f, m)), list(slow.rref(f, m)))
        assert rank(f, m) == slow.rank(f, m)
        _same(nullspace(f, m), slow.nullspace(f, m))
        square = [row[:rows] + [f.zero] * (rows - len(row)) for row in m]
        inverse = invert(f, square)
        _same(inverse, slow.invert(f, square))
        singular += inverse is None
        invertible += inverse is not None
        assert is_invertible(f, square) == (inverse is not None)
    assert singular > 30 and invertible > 30
    assert rref(f, []) == slow.rref(f, []) == ([], [])
