import random
from fractions import Fraction
from math import gcd

import pytest

from jacmate.poly import (
    IDENTITY,
    SWAP,
    BivariatePolynomial,
    parse_polynomial,
)
from jacmate.polygon import (
    EmptySupport,
    NotAnEdgeOfThisPolynomial,
    ZeroPolynomial,
    corollary_certificate,
    face_polynomial,
    hull,
    lattice_point_count,
    newton_polygon,
    outer_edges,
    right_outer_edges,
    support,
)


def random_support_poly(rng, max_degree=8, terms=8):
    pts = {}
    for _ in range(rng.randint(1, terms)):
        pts[(rng.randint(0, max_degree), rng.randint(0, max_degree))] = Fraction(
            rng.choice([-3, -2, -1, 1, 2, 3])
        )
    return BivariatePolynomial(pts)


def brute_hull_contains(vertices, pt):
    # pt is inside/on the hull iff it is a convex combination; for small sets
    # check it is on the correct side of every directed hull edge
    n = len(vertices)
    if n == 1:
        return pt == vertices[0]
    for k in range(n):
        ax, ay = vertices[k]
        bx, by = vertices[(k + 1) % n]
        cross = (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)
        if n == 2:
            # degenerate hull: a segment; require collinear and between
            if cross != 0:
                return False
        elif cross < 0:
            return False
    if n == 2:
        (ax, ay), (bx, by) = vertices
        return min(ax, bx) <= pt[0] <= max(ax, bx) and min(ay, by) <= pt[1] <= max(ay, by)
    return True


def test_support_and_errors():
    p = parse_polynomial("y + x^2*y^2")
    assert support(p) == {(0, 1), (2, 2)}
    with pytest.raises(ZeroPolynomial):
        newton_polygon(BivariatePolynomial.zero())
    with pytest.raises(EmptySupport):
        hull(set())


def test_single_term_is_a_point_polygon():
    poly = newton_polygon(parse_polynomial("x^2*y^3"))
    assert poly.vertices == ((2, 3),)
    assert outer_edges(poly) == []


def test_two_term_hull_is_one_edge():
    poly = newton_polygon(parse_polynomial("y + x^2*y^2"))
    assert set(poly.vertices) == {(0, 1), (2, 2)}
    edges = outer_edges(poly)
    assert len(edges) == 1
    (edge,) = edges
    assert edge.is_right
    assert edge.slope == Fraction(-2)


def test_hull_soundness_random():
    rng = random.Random(3001)
    for _ in range(300):
        p = random_support_poly(rng)
        pts = support(p)
        poly = newton_polygon(p)
        verts = list(poly.vertices)
        assert set(verts) <= pts
        for q in pts:
            assert brute_hull_contains(verts, q)


def test_hull_vertices_are_extreme():
    rng = random.Random(3002)
    for _ in range(200):
        p = random_support_poly(rng)
        poly = newton_polygon(p)
        verts = list(poly.vertices)
        if len(verts) < 3:
            continue
        # removing a vertex loses it from the hull of the rest
        for k, v in enumerate(verts):
            rest = set(verts) - {v}
            assert not brute_hull_contains(list(hull(rest).vertices), v)


def test_four_edge_fixture(four_edge_case):
    poly = newton_polygon(four_edge_case)
    edges = outer_edges(poly)
    assert len(edges) == 4
    rights = right_outer_edges(poly)
    assert [e.slope for e in rights] == [Fraction(-1), Fraction(0), Fraction(2)]
    for e in rights:
        assert e.normal[0] > 0


def test_right_edges_sorted_by_slope():
    rng = random.Random(3003)
    for _ in range(100):
        p = random_support_poly(rng)
        poly = newton_polygon(p)
        if len(poly.vertices) < 2:
            continue
        slopes = [e.slope for e in right_outer_edges(poly)]
        assert slopes == sorted(slopes)


def enumerate_lattice(edge):
    (x0, y0), (x1, y1) = edge.endpoints()
    count = 0
    for i in range(min(x0, x1), max(x0, x1) + 1):
        for j in range(min(y0, y1), max(y0, y1) + 1):
            if (x1 - x0) * (j - y0) == (y1 - y0) * (i - x0):
                if min(x0, x1) <= i <= max(x0, x1) and min(y0, y1) <= j <= max(y0, y1):
                    count += 1
    return count


def test_lattice_point_count_vs_enumeration():
    rng = random.Random(3004)
    checked = 0
    while checked < 200:
        p = random_support_poly(rng, max_degree=6)
        poly = newton_polygon(p)
        if len(poly.vertices) < 2:
            continue
        for e in outer_edges(poly):
            assert lattice_point_count(e) == enumerate_lattice(e)
            checked += 1


def test_certificates_on_fixture_family(certified_family):
    for p, endpoints in certified_family:
        cert = corollary_certificate(p)
        assert cert.satisfied
        assert cert.transform_used == IDENTITY
        assert cert.endpoints == endpoints
        assert cert.primitive_check == 1
        (a, b) = endpoints[1]
        assert gcd(a, b - 1) == 1


def test_certificate_slopes(certified_family):
    want = [Fraction(-1), Fraction(-1, 2), Fraction(-1, 2), Fraction(-2), Fraction(-2), Fraction(-2)]
    got = [corollary_certificate(p).theta for p, _ in certified_family]
    assert got == want


def test_swap_certificate(swap_case):
    cert = corollary_certificate(swap_case)
    assert cert.satisfied
    assert cert.transform_used == SWAP
    assert cert.endpoints == ((0, 1), (1, 2))
    no_swap = corollary_certificate(swap_case, allow_swap=False)
    assert not no_swap.satisfied
    assert no_swap.witness_edge is None


def test_identity_certificate_forces_y_divisibility(certified_family):
    # a witness edge through (0,1) pins the whole support above j = 1,
    # so a certified polynomial (no swap) has every term divisible by y
    rng = random.Random(3005)
    polys = [p for p, _ in certified_family]
    for _ in range(300):
        polys.append(random_support_poly(rng, max_degree=5))
    for p in polys:
        cert = corollary_certificate(p, allow_swap=False)
        if cert.satisfied:
            assert all(j >= 1 for _, j in support(p))


def test_non_primitive_edge_rejected():
    # edge (0,1)-(2,3) contains (1,2); the criterion must not fire on it
    p = parse_polynomial("y + x^2*y^3")
    cert = corollary_certificate(p)
    assert not cert.satisfied


def test_unsatisfied_examples():
    for s in ("x^2 + y^2", "x", "y", "1 + x*y", "y + x^2*y^3"):
        assert not corollary_certificate(parse_polynomial(s)).satisfied


def test_edge_must_leave_from_unit_y():
    # right edge exists but starts at (0,2), not (0,1)
    p = parse_polynomial("y^2 + x*y^3")
    assert not corollary_certificate(p).satisfied


def test_face_polynomial_on_witness_edge(p3):
    cert = corollary_certificate(p3)
    face = face_polynomial(p3, cert.witness_edge)
    assert face == {1: Fraction(1), 2: Fraction(1)}


def test_face_polynomial_rejects_foreign_edge(p1, p3):
    cert = corollary_certificate(p3)
    with pytest.raises(NotAnEdgeOfThisPolynomial):
        face_polynomial(p1, cert.witness_edge)


def test_face_polynomial_collects_collinear_terms(four_edge_case):
    rights = right_outer_edges(newton_polygon(four_edge_case))
    flat = [e for e in rights if e.slope == 0][0]
    face = face_polynomial(four_edge_case, flat)
    assert face == {1: Fraction(1), 2: Fraction(1)}
