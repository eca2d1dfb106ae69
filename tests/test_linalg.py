"""Exact linear algebra over the ground fields."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import Field, QQ
from jalg.linalg import identity, invert, is_invertible, nullspace, rank, rref
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
