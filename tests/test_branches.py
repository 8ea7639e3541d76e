import math
from fractions import Fraction

import pytest

from jacmate.poly import NEGATE_Y, Transform, parse_polynomial
from jacmate.polygon import (
    NotAnEdgeOfThisPolynomial,
    corollary_certificate,
    newton_polygon,
    outer_edges,
    right_outer_edges,
)
from jacmate.branches import (
    CONFIRMED,
    INCONCLUSIVE,
    SAMPLE_WIDTH,
    NotRightOuterEdge,
    TraceConfig,
    branch_candidates,
    lowest_positive_branch,
    trace_branch,
    trace_to_csv,
)


def witness_edge(p):
    return corollary_certificate(p).witness_edge


def log_slope(trace):
    # the slope of log|y| against log x from the first sample to the last
    (x0, y0), (x1, y1) = trace.samples[0], trace.samples[-1]
    return math.log(y1 / y0) / math.log(x1 / x0)


def test_trace_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(x_start=0.5)
    with pytest.raises(ValueError):
        TraceConfig(x_start=100.0, x_end=10.0)
    with pytest.raises(ValueError):
        TraceConfig(x_end=float("nan"))


def test_branch_candidates_p3(p3):
    cands = branch_candidates(p3, witness_edge(p3))
    assert len(cands) == 1
    (asym,) = cands
    assert asym.theta == Fraction(-2)
    assert asym.c_star == pytest.approx(-1.0, abs=1e-12)
    assert asym.c_interval[0] <= -1 <= asym.c_interval[1]
    assert asym.root_multiplicity == 1
    assert asym.existence == CONFIRMED
    assert asym.probes == ()  # an odd root is confirmed by the face alone


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


def first_edge_candidates(text):
    p = parse_polynomial(text)
    return branch_candidates(p, right_outer_edges(newton_polygon(p))[0])


def test_sign_probes_on_exact_rational_root():
    # the face (c - 1)^2 (c + 1) has the exact root 1, so the isolating
    # interval collapses, and the probes run beside the curve y = 1/x, on
    # 1/x -+ w/x: p = (c - 1)^2 (c + 1) > 0 on both, no probe straddles and
    # the double root stays inconclusive; the simple root -1 needs no probe
    simple, double = first_edge_candidates("(x*y - 1)^2*(x*y + 1)")
    assert (simple.c_interval, simple.probes) == ((-1, -1), ())
    assert simple.existence == CONFIRMED
    assert double.c_interval == (1, 1)
    assert double.root_multiplicity == 2
    for probe, x_expected in zip(double.probes, (1e2, 1e4, 1e6), strict=True):
        assert probe.x_probe == x_expected
        assert 1.0 - 1e-12 <= probe.c_minus < 1.0 < probe.c_plus <= 1.0 + 1e-12
        assert probe.sign_minus == probe.sign_plus == 1
        assert not probe.straddles
    assert double.existence == INCONCLUSIVE


@pytest.mark.parametrize("root", ["3", "1"], ids=["c_3_2", "c_1_2"])
def test_exactly_isolated_even_root_is_probed_beside_it(root):
    # the slope-0 face (2c - r)^2 isolates r/2 exactly (lo == hi); on
    # y = r/2 itself p is 0, but p = (2y - r) (x^2 (2y - r) + y^4 + 1)
    # changes sign across it at every probe abscissa: a branch
    (asym,) = first_edge_candidates(f"(2*y - {root})*(x^2*(2*y - {root}) + y^4 + 1)")
    c = Fraction(int(root), 2)
    assert asym.theta == 0
    assert asym.c_interval == (c, c)
    assert asym.root_multiplicity == 2
    assert len(asym.probes) == 3
    for probe in asym.probes:
        assert probe.c_minus < c < probe.c_plus
        assert (probe.sign_minus, probe.sign_plus) == (-1, 1)
    assert asym.existence == CONFIRMED


def test_sign_probes_straddle_irrational_root():
    # (x*y^2 - 2)^2 - y^4 has the face (c^2 - 2)^2: double roots at -+sqrt 2,
    # each strictly inside its interval, and p < 0 on both bounding curves
    cands = first_edge_candidates("(x*y^2 - 2)^2 - y^4")
    assert [a.c_star for a in cands] == pytest.approx([-(2**0.5), 2**0.5], abs=1e-10)
    for a in cands:
        assert a.root_multiplicity == 2
        assert a.c_interval[0] < a.c_star < a.c_interval[1]
        assert len(a.probes) == 3
        for probe in a.probes:
            assert probe.c_minus < a.c_star < probe.c_plus
            assert probe.sign_minus == probe.sign_plus == -1
            assert not probe.straddles
        assert a.existence == INCONCLUSIVE


def test_even_root_confirmed_when_every_probe_straddles():
    # the double face root c* = 1 of the edge of slope 0 carries a branch:
    # p changes sign across y = 1 at all three probe abscissae
    (asym,) = first_edge_candidates("2*x^2*y^2 - 4*x^2*y + 2*x^2 + 2*y^5 - y^2 - 2*y + 1")
    assert asym.theta == 0
    assert asym.root_multiplicity == 2
    assert len(asym.probes) == 3
    assert all(pr.sign_minus * pr.sign_plus == -1 for pr in asym.probes)
    assert asym.existence == CONFIRMED


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
    assert log_slope(trace) == pytest.approx(-1.0, abs=0.02)


def test_fitted_exponent_p3(p3):
    asym = branch_candidates(p3, witness_edge(p3))[0]
    trace = trace_branch(p3, asym, TraceConfig(x_start=10.0, x_end=1000.0))
    assert log_slope(trace) == pytest.approx(-2.0, abs=0.02)


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
    assert transform == Transform(swap_xy=True, negate_y=True)
    for x, y in trace.samples:
        assert y > 0
        assert abs(y - 1.0 / x) <= 1e-6 / x


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
    ratios = [y / x ** float(trace.theta) for x, y in trace.samples]
    lo, hi = min(ratios), max(ratios)
    assert lo <= 1.0 <= hi or (abs(lo - 1.0) < 0.2 and abs(hi - 1.0) < 0.2)


def first_confirmed(p):
    # the asymptote the branch command traces by default
    edge = right_outer_edges(newton_polygon(p))[0]
    return next(a for a in branch_candidates(p, edge) if a.existence == CONFIRMED)


@pytest.mark.parametrize(
    "text",
    ["y + x*y^2 + y^4", "y + x^2*y^2", "x + x^2*y", "(1 + x*y)^2*(2 + x*y)"],
)
def test_every_sample_is_an_isolated_root(text):
    # each y is an exact root of p(x, .) or p changes sign within a relative
    # 2^-39 of it: the sample lies in an interval of relative width 2^-40
    p = parse_polynomial(text)
    trace = trace_branch(p, first_confirmed(p), TraceConfig())
    assert len(trace.samples) == 96
    for x, y in trace.samples:
        fx, fy = Fraction(x), Fraction(y)
        if p.evaluate(fx, fy) == 0:
            continue
        below = p.evaluate(fx, fy * (1 - 2 * SAMPLE_WIDTH))
        above = p.evaluate(fx, fy * (1 + 2 * SAMPLE_WIDTH))
        assert below * above < 0, (x, y)
    assert trace.residual_bound <= 2**-40


def test_trace_far_out_stays_on_the_closed_form(p3):
    trace = trace_branch(p3, first_confirmed(p3), TraceConfig(x_start=1e6, x_end=1e7))
    assert len(trace.samples) == 49
    for x, y in trace.samples:
        assert y == pytest.approx(-1.0 / (x * x), rel=1e-12)


def test_trace_takes_the_lift_nearest_the_predictor():
    # the slope-0 edge has the double face root 1 with two lifts, y = 1 and
    # y = 1 - 3/x^2 + ...; the walk stays on y = 1, an exact root of p(x, .)
    p = parse_polynomial("2*x^2*y^2 - 4*x^2*y + 2*x^2 + 2*y^5 - y^2 - 2*y + 1")
    trace = trace_branch(p, first_confirmed(p), TraceConfig(x_end=20.0))
    assert len(trace.samples) == 16
    for _, y in trace.samples:
        assert y == pytest.approx(1.0, rel=1e-12)


def test_trace_beside_a_double_root():
    # p(x, .) has the simple root -2/x and the double root -1/x; the walk
    # isolates the simple one alone, landing on the float of -1/5 at x = 10
    p = parse_polynomial("(1 + x*y)^2*(2 + x*y)")
    trace = trace_branch(p, first_confirmed(p), TraceConfig())
    assert trace.samples[0] == (10.0, -0.2)
    for x, y in trace.samples:
        assert y == pytest.approx(-2.0 / x, rel=1e-12)
