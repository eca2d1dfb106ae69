"""Shared fixtures: ground fields and frequently used catalog entries."""

import pytest

from jalg import Field, QQ, catalog

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
