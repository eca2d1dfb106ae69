"""poly.solve_fp and the two F_p enumerations built on it, each against the
brute-force scans of slow_oracles: the same solutions in the same order."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jalg import (
    BudgetError,
    Field,
    FieldMismatchError,
    JalgError,
    PolyRing,
    QQ,
    catalog,
    enumerate_abelian_pairs,
    enumerate_deformations,
)
from jalg import poly
from jalg.poly import solve_fp
from slow_oracles import cube_zero_pairs, scan_abelian_pairs, scan_deformations, scan_solutions
from test_acceptance import SAMPLING_PLAN, SAMPLING_SEED, _random_pair

F5, F7 = Field(5), Field(7)


@st.composite
def systems(draw):
    """(field, names, conditions): at most four unknowns, listed in any
    order; conditions of up to three terms of degree <= 2 per variable,
    constants among them, some repeated."""
    field = draw(st.sampled_from([F5, F7]))
    k = draw(st.integers(min_value=0, max_value=4))
    names = draw(st.permutations([f"x{i}" for i in range(k)]))
    ring = PolyRing(field, names)
    p = field.characteristic

    def term():
        out = ring.const(draw(st.integers(min_value=0, max_value=p - 1)))
        for name in names:
            out = out * ring.var(name) ** draw(st.integers(min_value=0, max_value=2))
        return out

    conditions = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        cond = ring.zero
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            cond = cond + term()
        conditions.append(cond)
    if conditions:
        conditions += draw(st.lists(st.sampled_from(conditions), max_size=3))
    return field, names, conditions


@settings(deadline=None, derandomize=True, max_examples=150)
@given(systems())
def test_solve_fp_matches_brute_force(system):
    field, names, conditions = system
    assert solve_fp(field, names, conditions) == scan_solutions(field, names, conditions)


def test_solve_fp_constant_conditions():
    ring = PolyRing(F5, ("x", "y"))
    everything = [(x, y) for x in range(5) for y in range(5)]
    assert solve_fp(F5, ("x", "y"), [ring.zero, ring.const(5)]) == everything
    assert solve_fp(F5, ("x", "y"), [ring.var("x"), ring.one]) == []
    assert solve_fp(F5, (), []) == [()]
    assert solve_fp(F5, (), [ring.one]) == []


def test_solve_fp_rejects_bad_input():
    ring = PolyRing(F5, ("x", "y"))
    with pytest.raises(JalgError):
        solve_fp(QQ, ("x",), [])
    with pytest.raises(JalgError):
        solve_fp(F5, ("x",), [ring.var("y")])
    with pytest.raises(FieldMismatchError):
        solve_fp(F7, ("x", "y"), [ring.var("y")])


def test_solve_fp_node_budget(monkeypatch):
    """Each binding of one unknown to one value is a node: with no
    conditions, three unknowns over F5 take 5 + 25 + 125 of them."""
    names = ("x", "y", "z")
    monkeypatch.setattr(poly, "SOLVE_NODE_BUDGET", 155)
    assert len(solve_fp(F5, names, [])) == 125
    monkeypatch.setattr(poly, "SOLVE_NODE_BUDGET", 154)
    with pytest.raises(BudgetError):
        solve_fp(F5, names, [])


@pytest.mark.parametrize(
    "name, p",
    [
        ("defmap-pair", 5),
        ("defmap-pair", 7),
        ("defmap-pair", 11),
        ("J7-pair", 5),
        ("J7-pair", 7),
        ("J17-pair", 5),
        ("J17-pair", 7),
    ],
)
def test_deformations_match_scan(name, p):
    mp = catalog(name, field=Field(p))
    assert enumerate_deformations(mp) == scan_deformations(mp)


def test_deformations_match_scan_on_sampled_pairs():
    """Criterion 10's 200 sampled matched pairs, dims up to (2, 2) over F5."""
    rng = random.Random(SAMPLING_SEED)
    for (na, nv), q, count in SAMPLING_PLAN:
        got = 0
        while got < count:
            mp = _random_pair(rng, na, nv, q)
            if mp.verify(stop_early=True).ok:
                assert enumerate_deformations(mp) == scan_deformations(mp)
                got += 1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", [F5, F7])
def test_abelian_census_matches_scan_and_closed_form(n, field):
    census = enumerate_abelian_pairs(n, field)
    assert census.candidates == field.characteristic ** (n + n * n)
    found = [(lam, cols) for lam, cols, _ in census.pairs]
    assert found == scan_abelian_pairs(field, n) == cube_zero_pairs(field, n)
