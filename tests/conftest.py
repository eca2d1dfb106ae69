"""Shared fixtures: ground fields and frequently used catalog entries; and
Jordan bimodules as pairs, a right action on an abelian factor with no
left action."""

import pytest

from jalg import Algebra, Field, LeftAction, MatchedPair, QQ, RightAction, catalog

F5 = Field(5)


@pytest.fixture(scope="session")
def f5():
    return F5


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def j5():
    return catalog("J5")


@pytest.fixture(scope="session")
def j17():
    return catalog("J17")


@pytest.fixture(scope="session")
def defmap_pair():
    return catalog("defmap-pair")


@pytest.fixture(scope="session")
def defmap_pair_f5():
    return catalog("defmap-pair", field=F5)


# A Jordan, V not Jordan (its identity fails in coordinate w), both actions
# zero: a pair that is unmatched for its complement factor alone.
NON_JORDAN_V_PAIR = """\
algebra A
  field F5
  dim 1
  basis a
  mult a a = a
end

algebra V
  field F5
  dim 3
  basis w u v
  mult u u = u
  mult v v = v
  mult u w = w
  mult v w = w
end
"""


@pytest.fixture
def non_jordan_v_jpair(tmp_path):
    path = tmp_path / "non-jordan-v.jpair"
    path.write_text(NON_JORDAN_V_PAIR)
    return str(path)


def module_action(A, act, labels=None):
    """The module over A with act[i][m] = e_i . m_m, as the RightAction of A
    on an abelian V over A's field and parameters: tensor[x][a] = act[a][x].
    V's labels default to m0, m1, ...; its dimension is read off `labels`
    when A has no basis vector to read it from act."""
    m = len(labels) if labels is not None else len(act[0])
    labels = [f"m{i}" for i in range(m)] if labels is None else labels
    z = A.ring.zero
    V = Algebra(A.field, labels, [[[z] * m] * m] * m, params=A.params)
    return RightAction(V, A, [[act[a][x] for a in range(A.dim)] for x in range(m)])


def regular_module(A):
    """A acting on itself, on an abelian copy of its labels (the products
    of the pair prime them)."""
    return module_action(A, A.sc, A.basis)


def module_pair(ra):
    """The pair (A, V, ra, 0): MatchedPair.verify decides the module's two
    laws as its right-action and MP3 pieces."""
    return MatchedPair(ra.A, ra.V, ra, LeftAction.zero(ra.V, ra.A))
