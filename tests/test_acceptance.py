"""Acceptance gate: end-to-end checks with pinned tolerances and budgets.

Each test covers one acceptance criterion and prints exactly one PASS/FAIL
line straight to the terminal (bypassing capture) so the verdicts are
visible in any pytest run.  Runtime budgets are asserted, not advisory.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from jacmate import univariate as uni
from jacmate.branches import TraceConfig, branch_candidates, trace_branch
from jacmate.falsifier import MinRecord, ZeroWitness, find_jacobian_zero, random_trials
from jacmate.poly import (
    IDENTITY,
    SWAP,
    BivariatePolynomial,
    apply_transform,
    jacobian,
    parse_polynomial,
)
from jacmate.polygon import (
    corollary_certificate,
    lattice_point_count,
    newton_polygon,
    outer_edges,
    right_outer_edges,
)
from jacmate.tongue import (
    CONTAINED_IN_B,
    EMPTY,
    SEGMENT_ARC,
    VERIFIED,
    tongue_certificate,
)

NO_MATE_FAMILY = [
    ("y + x*y^2 + y^4", ((0, 1), (1, 2))),
    ("y + x*y^3", ((0, 1), (1, 3))),
    ("y + y^2 + x*y^3", ((0, 1), (1, 3))),
    ("y + x^2*y^2", ((0, 1), (2, 2))),
    ("y + y^3 + x^2*y^2", ((0, 1), (2, 2))),
    ("y + y^2 + y^3 + x^2*y^2", ((0, 1), (2, 2))),
]


@contextmanager
def criterion(capsys, number, label, budget_seconds):
    started = time.perf_counter()
    try:
        yield
        took = time.perf_counter() - started
        if took >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {took:.2f}s, budget {budget_seconds:g}s"
            )
    except BaseException:
        took = time.perf_counter() - started
        with capsys.disabled():
            print(f"acceptance {number} ({label}): FAIL [{took:.2f}s]")
        raise
    with capsys.disabled():
        print(
            f"acceptance {number} ({label}): PASS "
            f"[{took:.2f}s of {budget_seconds:g}s]"
        )


def test_acceptance_edge_census(capsys):
    with criterion(capsys, 1, "outer edge census", 1.0):
        p = parse_polynomial("x + x^2 + x^3*y + y^2 + x^3*y^2 + x*y^3")
        poly = newton_polygon(p)
        assert len(outer_edges(poly)) == 4
        slopes = sorted(e.slope for e in right_outer_edges(poly))
        assert slopes == [Fraction(-1), Fraction(0), Fraction(2)]
        assert all(isinstance(s, Fraction) for s in slopes)


def test_acceptance_no_mate_certificates(capsys):
    with criterion(capsys, 2, "no-mate certificates", 1.0):
        for text, endpoints in NO_MATE_FAMILY:
            cert = corollary_certificate(parse_polynomial(text))
            assert cert.satisfied, text
            assert cert.transform_used == IDENTITY, text
            assert cert.endpoints == endpoints, text
            assert cert.primitive_check == 1, text


def test_acceptance_swap_certificate(capsys):
    with criterion(capsys, 3, "swapped-variable certificate", 1.0):
        cert = corollary_certificate(parse_polynomial("x + x^2*y"))
        assert cert.satisfied
        assert cert.transform_used == SWAP
        assert cert.endpoints == ((0, 1), (1, 2))


def test_acceptance_branch_tracing(capsys):
    with criterion(capsys, 4, "branch tracing", 5.0):
        p = parse_polynomial("y + x^2*y^2")
        cert = corollary_certificate(p)
        candidates = branch_candidates(p, cert.witness_edge)
        assert len(candidates) == 1
        trace = trace_branch(p, candidates[0], TraceConfig())
        assert trace.samples[0][0] == 10.0
        assert trace.samples[-1][0] == 1000.0
        for x, y in trace.samples:
            exact = -1.0 / x**2
            assert abs(y - exact) <= 1e-8 * abs(exact)
        # the slope of log|y| against log x from the first sample to the last
        (x0, y0), (x1, y1) = trace.samples[0], trace.samples[-1]
        assert abs(math.log(y1 / y0) / math.log(x1 / x0) - (-2.0)) <= 0.02


def _check_level_structure(report, t0):
    below, inside, above = [], [], []
    for rec in report.records:
        assert not rec.closed_loop_detected, rec
        assert rec.ok, rec
        if rec.t <= 0.0:
            below.append(rec)
        elif rec.t <= float(t0):
            inside.append(rec)
        else:
            above.append(rec)
    assert len(below) == 5 and len(inside) == 20 and len(above) == 5
    for rec in below:
        assert rec.classification == EMPTY
    for rec in inside:
        assert rec.classification == SEGMENT_ARC
        assert rec.component_count == 1
        assert rec.boundary_endpoint_count == 2
    for rec in above:
        assert rec.classification in (EMPTY, CONTAINED_IN_B)


def test_acceptance_tongue_verification(capsys):
    with criterion(capsys, 5, "tongue verification", 30.0):
        p = parse_polynomial("y + x^2*y^2")
        cert = tongue_certificate(p, corollary_certificate(p))
        assert cert.status == VERIFIED
        region = cert.region
        assert region.x0 == 1
        profile = region.profile
        assert profile.t0 == Fraction(1, 8)
        assert abs(profile.a - (1 - math.sqrt(2) / 2) / 2) <= 1e-9
        assert abs(profile.b - (1 + math.sqrt(2) / 2) / 2) <= 1e-9
        _check_level_structure(cert.level_report, profile.t0)

        p = parse_polynomial("y + x*y^2 + y^4")
        other = tongue_certificate(p, corollary_certificate(p))
        assert other.status == VERIFIED
        _check_level_structure(other.level_report, other.region.profile.t0)


def test_acceptance_falsifier_witnesses(capsys):
    with criterion(capsys, 6, "falsifier witnesses", 120.0):
        p1 = parse_polynomial("y + x*y^2 + y^4")

        # transversal: the Jacobian against x vanishes on 1 + 2xy + 4y^3 = 0
        w = find_jacobian_zero(p1, parse_polynomial("x"))
        assert isinstance(w, ZeroWitness)
        wx, wy = w.point
        xq = Fraction(wx)
        g = [1 + 0 * xq, 2 * xq, Fraction(0), Fraction(4)]
        roots = [float(root) for root in uni.isolate_roots(g)]
        assert min(abs(r - wy) for r in roots) <= 1e-6

        # tangential: the Jacobian against y is y^2, zero only on the axis
        w = find_jacobian_zero(p1, parse_polynomial("y"))
        assert isinstance(w, ZeroWitness)
        assert abs(w.point[1]) <= 1e-3

        def signature(report):
            return tuple(
                (
                    o.q_text,
                    o.found,
                    o.witness.point if o.found else o.min_record.best_point,
                )
                for o in report.outcomes
            )

        first_signature = None
        for text, _ in NO_MATE_FAMILY:
            report = random_trials(parse_polynomial(text), 20)
            assert corollary_certificate(parse_polynomial(text)).satisfied
            assert report.witness_rate >= 0.9, text
            for outcome in report.outcomes:
                if outcome.found:
                    assert outcome.witness.jac_exact <= 1e-5
                else:
                    assert isinstance(outcome.min_record, MinRecord)
            if first_signature is None:
                first_signature = signature(report)

        rerun = random_trials(parse_polynomial(NO_MATE_FAMILY[0][0]), 20)
        assert signature(rerun) == first_signature


def _random_support_poly(rng, max_degree=8, terms=8):
    pts = {}
    for _ in range(rng.randint(1, terms)):
        pts[(rng.randint(0, max_degree), rng.randint(0, max_degree))] = Fraction(
            rng.choice([-3, -2, -1, 1, 2, 3])
        )
    return BivariatePolynomial(pts)


def _hull_contains(vertices, pt):
    n = len(vertices)
    if n == 1:
        return pt == vertices[0]
    for k in range(n):
        ax, ay = vertices[k]
        bx, by = vertices[(k + 1) % n]
        cross = (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax)
        if n == 2:
            if cross != 0:
                return False
        elif cross < 0:
            return False
    if n == 2:
        (ax, ay), (bx, by) = vertices
        return min(ax, bx) <= pt[0] <= max(ax, bx) and min(ay, by) <= pt[1] <= max(ay, by)
    return True


def _enumerate_lattice(edge):
    (i0, j0), (i1, j1) = edge.start, edge.end
    count = 0
    for i in range(min(i0, i1), max(i0, i1) + 1):
        for j in range(min(j0, j1), max(j0, j1) + 1):
            if (i1 - i0) * (j - j0) == (j1 - j0) * (i - i0):
                count += 1
    return count


def test_acceptance_exact_property_suites(capsys):
    with criterion(capsys, 7, "exact property suites", 60.0):
        rng = random.Random(20260816)

        # hull soundness and edge lattice counts against brute enumeration
        for _ in range(500):
            p = _random_support_poly(rng)
            poly = newton_polygon(p)
            verts = list(poly.vertices)
            assert set(verts) <= p.support()
            for pt in p.support():
                assert _hull_contains(verts, pt)
            if len(verts) >= 2:
                for edge in outer_edges(poly):
                    assert lattice_point_count(edge) == _enumerate_lattice(edge)

        # the Jacobian bracket is antisymmetric and additive, exactly
        for _ in range(200):
            p, q, r = (_random_support_poly(rng, max_degree=4, terms=5) for _ in range(3))
            assert jacobian(p, q) + jacobian(q, p) == BivariatePolynomial.zero()
            assert jacobian(p, q + r) == jacobian(p, q) + jacobian(p, r)

        # symbolic derivatives against central differences
        h = 1e-5
        checked = 0
        while checked < 100:
            p = _random_support_poly(rng, max_degree=3, terms=5)
            var = rng.choice(("x", "y"))
            dp = p.partial_derivative(var)
            x = rng.uniform(0.5, 1.5)
            y = rng.uniform(0.5, 1.5)
            sym = dp.evaluate_approx(x, y)
            if abs(sym) < 1.0:
                continue
            if var == "x":
                num = (p.evaluate_approx(x + h, y) - p.evaluate_approx(x - h, y)) / (2 * h)
            else:
                num = (p.evaluate_approx(x, y + h) - p.evaluate_approx(x, y - h)) / (2 * h)
            assert abs(num - sym) <= 1e-6 * abs(sym)
            checked += 1

        # shifting by any nonzero constant strictly raises the least right slope
        fixtures = [text for text, _ in NO_MATE_FAMILY] + ["x + x^2*y"]
        for text in fixtures:
            p = parse_polynomial(text)
            cert = corollary_certificate(p)
            assert cert.satisfied
            star = apply_transform(p, cert.transform_used)
            for _ in range(20):
                num = 0
                while num == 0:
                    num = rng.randint(-9, 9)
                t = Fraction(num, rng.randint(1, 9))
                shifted = star - t
                slopes = [e.slope for e in right_outer_edges(newton_polygon(shifted))]
                assert slopes
                assert min(slopes) > cert.theta
