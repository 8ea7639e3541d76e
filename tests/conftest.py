import pytest

from jacmate import poly
from jacmate.poly import parse_polynomial


@pytest.fixture
def compiled_plans(monkeypatch):
    """The (rows, last_j) of each Horner plan compiled while the test runs."""
    compiled = []
    compile_plan = poly._compile_plan

    def counted(rows, last_j):
        compiled.append((rows, last_j))
        return compile_plan(rows, last_j)

    monkeypatch.setattr(poly, "_compile_plan", counted)
    return compiled


@pytest.fixture(scope="session")
def p1():
    return parse_polynomial("y + x*y^2 + y^4")


@pytest.fixture(scope="session")
def p2a():
    return parse_polynomial("y + x*y^3")


@pytest.fixture(scope="session")
def p2b():
    return parse_polynomial("y + y^2 + x*y^3")


@pytest.fixture(scope="session")
def p3():
    return parse_polynomial("y + x^2*y^2")


@pytest.fixture(scope="session")
def p4a():
    return parse_polynomial("y + y^3 + x^2*y^2")


@pytest.fixture(scope="session")
def p4b():
    return parse_polynomial("y + y^2 + y^3 + x^2*y^2")


@pytest.fixture(scope="session")
def swap_case():
    # certifies only after exchanging the variables
    return parse_polynomial("x + x^2*y")


@pytest.fixture(scope="session")
def four_edge_case():
    # hull with four outer edges; right slopes -1, 0 and 2
    return parse_polynomial("x + x^2 + x^3*y + y^2 + x^3*y^2 + x*y^3")


@pytest.fixture(scope="session")
def certified_family(p1, p2a, p2b, p3, p4a, p4b):
    return [
        (p1, ((0, 1), (1, 2))),
        (p2a, ((0, 1), (1, 3))),
        (p2b, ((0, 1), (1, 3))),
        (p3, ((0, 1), (2, 2))),
        (p4a, ((0, 1), (2, 2))),
        (p4b, ((0, 1), (2, 2))),
    ]
