from fractions import Fraction

import pytest

from jacmate.poly import NEGATE_Y, SWAP, compose_transforms, parse_polynomial
from jacmate.polygon import (
    NotAnEdgeOfThisPolynomial,
    corollary_certificate,
    newton_polygon,
    outer_edges,
    right_outer_edges,
)
from jacmate import branches
from jacmate.branches import (
    CONFIRMED,
    NotRightOuterEdge,
    TraceConfig,
    branch_candidates,
    fitted_exponent,
    lowest_positive_branch,
    positive_asymptote,
    trace_branch,
    trace_to_csv,
)


def witness_edge(p):
    return corollary_certificate(p).witness_edge


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(x_start=0.5)
    with pytest.raises(ValueError):
        TraceConfig(x_start=100.0, x_end=10.0)


def test_branch_candidates_p3(p3):
    cands = branch_candidates(p3, witness_edge(p3))
    assert len(cands) == 1
    (asym,) = cands
    assert asym.theta == Fraction(-2)
    assert asym.c_star == pytest.approx(-1.0, abs=1e-12)
    assert asym.c_interval[0] <= -1 <= asym.c_interval[1]
    assert asym.root_multiplicity == 1
    assert asym.existence == CONFIRMED
    assert len(asym.probes) == 3


def test_branch_candidates_reject_foreign_edge(p1, p3):
    with pytest.raises(NotAnEdgeOfThisPolynomial):
        branch_candidates(p1, witness_edge(p3))


def test_branch_candidates_reject_non_right_edge(four_edge_case):
    top_left = [
        e for e in outer_edges(newton_polygon(four_edge_case)) if not e.is_right
    ]
    assert top_left
    with pytest.raises(NotRightOuterEdge):
        branch_candidates(four_edge_case, top_left[0])


def test_sign_probes_on_exact_rational_root(p3):
    # the face root is exactly -1, so the isolating interval collapses and
    # both probes land on the curve itself; oddness of the multiplicity
    # carries the existence argument instead
    asym = branch_candidates(p3, witness_edge(p3))[0]
    for probe, x_expected in zip(asym.probes, (1e2, 1e4, 1e6)):
        assert probe.x_probe == x_expected
        assert probe.c_minus == probe.c_plus == -1.0
        assert probe.sign_minus == probe.sign_plus == 0
        assert not probe.straddles
    assert asym.root_multiplicity == 1
    assert asym.existence == CONFIRMED


def test_sign_probes_straddle_irrational_root():
    p = parse_polynomial("y - 2*x*y^3")
    (edge,) = right_outer_edges(newton_polygon(p))
    cands = branch_candidates(p, edge)
    stars = sorted(a.c_star for a in cands)
    root = (0.5) ** 0.5
    assert stars == pytest.approx([-root, root], abs=1e-10)
    for a in cands:
        assert a.c_interval[0] < a.c_star < a.c_interval[1]
        for probe in a.probes:
            assert probe.straddles
            assert probe.sign_minus * probe.sign_plus == -1
        assert a.existence == CONFIRMED


def test_trace_p3_against_closed_form(p3):
    # on the witness edge the curve is y = -1/x^2 exactly
    asym = branch_candidates(p3, witness_edge(p3))[0]
    trace = trace_branch(p3, asym, TraceConfig(x_start=10.0, x_end=1000.0))
    assert trace.samples[0][0] == 10.0
    assert trace.samples[-1][0] >= 1000.0
    for x, y in trace.samples:
        want = -1.0 / (x * x)
        assert abs(y - want) <= 1e-8 * abs(want)
    assert trace.residual_bound <= 1e-10


def test_trace_p1_asymptote(p1):
    # y + x*y^2 + y^4 = 0 along the edge gives y ~ -1/x with corrections
    asym = branch_candidates(p1, witness_edge(p1))[0]
    trace = trace_branch(p1, asym, TraceConfig(x_start=100.0, x_end=10000.0))
    for x, y in trace.samples:
        assert abs(y + 1.0 / x) <= 5.0 / x**3  # next-order term decays as x^-3
    assert fitted_exponent(trace) == pytest.approx(-1.0, abs=0.02)


def test_fitted_exponent_p3(p3):
    asym = branch_candidates(p3, witness_edge(p3))[0]
    trace = trace_branch(p3, asym, TraceConfig(x_start=10.0, x_end=1000.0))
    assert fitted_exponent(trace) == pytest.approx(-2.0, abs=0.02)


def test_two_branches_ordered_by_slope():
    p = parse_polynomial("(x*y - 1)*(x^2*y - 1)")
    edges = right_outer_edges(newton_polygon(p))
    assert [e.slope for e in edges] == [Fraction(-2), Fraction(-1)]
    traces = []
    for e in edges:
        (asym,) = branch_candidates(p, e)
        assert asym.existence == CONFIRMED
        assert asym.c_star == pytest.approx(1.0, abs=1e-12)
        traces.append(trace_branch(p, asym, TraceConfig(x_start=10.0, x_end=100.0)))
    # the steeper edge gives the branch that hugs the axis
    for (x1, y1), (x2, y2) in zip(traces[0].samples, traces[1].samples):
        assert x1 == x2
        assert 0 < y1 < y2
    assert traces[0].samples[0][1] == pytest.approx(1e-2, rel=1e-6)
    assert traces[1].samples[0][1] == pytest.approx(1e-1, rel=1e-6)


def test_lowest_positive_branch_p3(p3):
    transform, trace = lowest_positive_branch(p3)
    assert transform == NEGATE_Y
    for x, y in trace.samples:
        assert y > 0
        assert abs(y - 1.0 / (x * x)) <= 1e-8 / (x * x)


def test_lowest_positive_branch_swap_case(swap_case):
    transform, trace = lowest_positive_branch(swap_case)
    assert transform == compose_transforms(SWAP, NEGATE_Y)
    for x, y in trace.samples:
        assert y > 0
        assert abs(y - 1.0 / x) <= 1e-6 / x


def test_positive_asymptote_needs_no_trace(monkeypatch, p3, swap_case):
    # the transform and asymptote are decided exactly: y + x^2*y^2 has its
    # branch y = -1/x^2, moved up by negating y; x + x^2*y has x = -1/y
    def untraceable(*args):
        raise AssertionError("traced")

    monkeypatch.setattr(branches, "trace_branch", untraceable)
    transform, asym = positive_asymptote(p3)
    assert transform == NEGATE_Y
    assert (asym.theta, asym.existence) == (Fraction(-2), CONFIRMED)
    assert asym.c_interval[0] <= 1 <= asym.c_interval[1]
    assert positive_asymptote(swap_case)[0] == compose_transforms(SWAP, NEGATE_Y)
    with pytest.raises(ValueError):
        positive_asymptote(parse_polynomial("x^2 + y^2"))


def test_lowest_positive_branch_requires_certificate():
    with pytest.raises(ValueError):
        lowest_positive_branch(parse_polynomial("x^2 + y^2"))


def test_trace_csv_shape(p3):
    asym = branch_candidates(p3, witness_edge(p3))[0]
    trace = trace_branch(p3, asym, TraceConfig(x_start=10.0, x_end=40.0))
    text = trace_to_csv(trace, p3)
    lines = text.strip().splitlines()
    assert lines[0] == "x,y,residual"
    assert len(lines) == len(trace.samples) + 1
    x, y, res = lines[1].split(",")
    assert float(x) == 10.0
    assert abs(float(res)) <= 1e-10


def test_ratio_bounds_bracket_unity(p3):
    # sample-to-sample ratio of y against the power law stays near 1
    _, trace = lowest_positive_branch(p3)
    lo, hi = trace.ratio_bounds
    assert lo <= 1.0 <= hi or (abs(lo - 1.0) < 0.2 and abs(hi - 1.0) < 0.2)
