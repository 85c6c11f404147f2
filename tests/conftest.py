from fractions import Fraction
from pathlib import Path

import pytest

from perigraph import load_net, load_polytope, parse_net

TESTS = Path(__file__).resolve().parent


def load_test_net(name):
    """A bundled net, or one kept beside the tests (``wakatsuki-q2``)."""
    path = TESTS / f"{name}.net"
    return parse_net(path.read_text()) if path.exists() else load_net(name)


@pytest.fixture(scope="session")
def wakatsuki():
    return load_net("wakatsuki")


@pytest.fixture(scope="session")
def dia():
    return load_net("dia")


@pytest.fixture(scope="session")
def z1():
    return load_net("z1")


@pytest.fixture(scope="session")
def z2():
    return load_net("z2")


@pytest.fixture(scope="session")
def z3():
    return load_net("z3")


@pytest.fixture(scope="session")
def wakatsuki_q2():
    return load_test_net("wakatsuki-q2")


@pytest.fixture(scope="session")
def one_way():
    # a carries the four unit loops; b reaches a but a never reaches b, so
    # the periodic graph is not strongly connected
    return parse_net("""format: pgnet/1
name: one-way
rank: 2
undirected: false
class: a 0 0
class: b 1/2 0
edge: a a 1 0 1
edge: a a -1 0 1
edge: a a 0 1 1
edge: a a 0 -1 1
edge: b a 0 0 1
edge: b b 0 0 1
""")


@pytest.fixture(scope="session")
def square_poly():
    return load_polytope("square")[0]


@pytest.fixture(scope="session")
def cross_poly():
    return load_polytope("crosspolytope")[0]


@pytest.fixture(scope="session")
def triangle_poly():
    return load_polytope("reflexive_triangle")[0]


def frac(p, q=1):
    return Fraction(p, q)
