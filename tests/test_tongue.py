import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacmate.poly import IDENTITY, NEGATE_Y, SWAP, compose_transforms, parse_polynomial
from jacmate.render import LevelRaster, boundary_interpolator, boundary_trace
from jacmate.tongue import (
    CONTAINED_IN_B,
    EMPTY,
    FAILED,
    INCONCLUSIVE,
    SEGMENT_ARC,
    VERIFIED,
    GridSpec,
    LevelSetUndecided,
    NotSingleSignedOnInterval,
    build_tongue,
    check_level_sets,
    check_no_critical_points,
    default_schedule,
    restriction_profile,
    tongue_certificate,
)
from jacmate import branches, render, tongue
from jacmate import univariate as uni
from jacmate.cli import run_command


SQ2 = 2**0.5


@pytest.fixture(scope="module")
def region3(p3):
    return build_tongue(p3)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=8)
    with pytest.raises(ValueError):
        GridSpec(ny=0)


def test_region_shape_p3(region3):
    assert region3.transform == NEGATE_Y
    assert region3.flipped
    assert str(region3.poly) == "-x^2*y^2 + y"
    assert region3.x0 == 1


def test_profile_closed_form_p3(region3):
    # h(y) = y - y^2 on [0, 1]: peak 1/4 at 1/2, barrier 1/8,
    # crossings (1 -/+ sqrt(1/2))/2
    prof = region3.profile
    assert prof.t0 == Fraction(1, 8)
    assert prof.f_x0 == pytest.approx(1.0, abs=1e-9)
    assert list(prof.h_coeffs) == [Fraction(0), Fraction(1), Fraction(-1)]
    assert prof.critical_points_of_h == pytest.approx((0.5,), abs=1e-12)
    assert prof.a == pytest.approx((1 - SQ2 / 2) / 2, abs=1e-9)
    assert prof.b == pytest.approx((1 + SQ2 / 2) / 2, abs=1e-9)
    assert prof.a_interval[0] <= Fraction(prof.a).limit_denominator(10**12) <= prof.b_interval[1]


def test_profile_at_shifted_start(p3):
    # same curve entered at x0 = 2: h(y) = y - 4y^2 peaks at 1/16
    region = build_tongue(p3, x0=2)
    prof = region.profile
    assert prof.x0 == 2
    assert prof.t0 == Fraction(1, 32)
    assert list(prof.h_coeffs) == [Fraction(0), Fraction(1), Fraction(-4)]
    assert prof.a == pytest.approx((1 - SQ2 / 2) / 8, abs=1e-9)
    assert prof.b == pytest.approx((1 + SQ2 / 2) / 8, abs=1e-9)


def test_profile_rejects_sign_change():
    # restriction -y + y^2 is negative on (0, 1)
    p = parse_polynomial("-y + x^2*y^2")
    with pytest.raises(NotSingleSignedOnInterval):
        restriction_profile(p, 1, 1.0)


def test_barrier_is_exactly_verified(region3):
    # two simple crossings of h - t0 inside (0, f_x0), none outside [a, b]
    prof = region3.profile
    shifted = list(prof.h_coeffs)
    shifted[0] -= prof.t0
    assert uni.count_roots(shifted, Fraction(0), Fraction(1)) == 2
    hp = uni.derivative(list(prof.h_coeffs))
    assert uni.count_roots(hp, Fraction(0), prof.a_interval[0]) == 0
    assert uni.count_roots(hp, prof.b_interval[1], Fraction(1)) == 0


def test_boundary_trace_matches_closed_form(region3):
    # the flipped curve is y = 1/x^2 exactly; the drawing traces it itself
    trace = boundary_trace(region3, 50.0)
    assert trace.samples[-1][0] == 50.0
    for x, y in trace.samples:
        assert abs(y - 1.0 / (x * x)) <= 1e-8 / (x * x)


def test_boundary_interpolator_power_law(region3):
    f = boundary_interpolator(boundary_trace(region3, 50.0))
    xs = np.geomspace(1.0, 200.0, 64)  # extends past the trace on purpose
    want = 1.0 / xs**2
    got = np.asarray(f(xs))
    assert np.all(np.abs(got - want) <= 1e-6 * want)


def test_critical_point_sweep_clean_p3(region3):
    # the exact decision: R = Res_y(p_x, p_y) of -x^2*y^2 + y is a multiple
    # of x, root-free on [1, oo), so x0 = 1 stands
    r, _ = region3.resultants
    assert check_no_critical_points(r, Fraction(1)) == 1
    assert not tongue._root_free_from(r, Fraction(0))


def critical_abscissa_powers(text, start=Fraction(1)):
    """x0 from the exact (H1) decision, and the powers of two it rejected."""
    p = parse_polynomial(text)
    r = uni.resultant_y(p.partial_derivative("x"), p.partial_derivative("y"))
    x0 = check_no_critical_points(r, start)
    rejected = []
    x = start
    while x < x0:
        assert not tongue._root_free_from(r, x)
        rejected.append(x)
        x *= 2
    assert tongue._root_free_from(r, x0)
    return x0, rejected


def test_critical_point_sweep_finds_planted_line():
    # dp/dy = 1 - 3y^2 vanishes along y = 1/sqrt(3) and dp/dx is identically
    # 0: a curve of critical points, R = 0, which the decision names
    p = parse_polynomial("y - y^3")
    r = uni.resultant_y(p.partial_derivative("x"), p.partial_derivative("y"))
    assert r == []
    with pytest.raises(LevelSetUndecided, match="vanishes identically: a shared factor"):
        check_no_critical_points(r, Fraction(1))


def test_critical_point_sweep_finds_isolated_point():
    # p = y - y^2 - (x - 2)^2 * y^2 has dp/dx = -2(x-2)y^2 and
    # dp/dy = 1 - 2y - 2(x-2)^2 y: one critical point, (2, 1/2); R's root 2
    # rules out 1 and 2 itself, and 9/4 is already past it
    assert critical_abscissa_powers("y - y^2 - (x - 2)^2*y^2") == (4, [1, 2])
    assert critical_abscissa_powers("y - y^2 - (x - 2)^2*y^2", Fraction(9, 4)) == (Fraction(9, 4), [])


def test_critical_point_on_double_root_slice():
    # p_y(2, y) = 12(y - 1)^2: a double root of p_y over the rational root 2 of R
    assert critical_abscissa_powers("-x^2*y^2 + x^2*y^3 + 3*x^2*y - x^3*y^2") == (4, [1, 2])


def test_critical_point_on_double_root_at_irrational_x():
    # the same point moved to x = sqrt(5) = 2.2360...: 9/4 is past it, 35/16 not
    text = "-(x^2 - 3)^2*y^2 + (x^2 - 3)^2*y^3 + 3*(x^2 - 3)^2*y - (x^2 - 3)^3*y^2"
    assert critical_abscissa_powers(text) == (4, [1, 2])
    assert critical_abscissa_powers(text, Fraction(9, 4)) == (Fraction(9, 4), [])
    assert critical_abscissa_powers(text, Fraction(35, 16)) == (Fraction(35, 8), [Fraction(35, 16)])


def test_critical_point_at_irrational_x():
    # p_x and p_y vanish together at (1 + sqrt(2), 1/2), x = 2.4142...
    text = "y - y^2 - (x^2 - 2*x - 1)^2*y^2"
    assert critical_abscissa_powers(text) == (4, [1, 2])
    assert critical_abscissa_powers(text, Fraction(9, 4)) == (Fraction(9, 2), [Fraction(9, 4)])
    assert critical_abscissa_powers(text, Fraction(5, 2)) == (Fraction(5, 2), [])


def test_shared_factor_partials_are_inconclusive_at_once(monkeypatch):
    # p = u + u^2 with u = y + x*y^2: both partials carry 1 + 2u, so R is
    # identically zero; the exact level argument needs R != 0, and no x0 is
    # tried
    monkeypatch.setattr(tongue, "restriction_profile", None)
    cert = tongue_certificate(parse_polynomial("y + x*y^2 + (y + x*y^2)^2"))
    assert cert.status == INCONCLUSIVE
    assert cert.region is None and cert.level_report is None
    assert cert.reasons == ("R = Res_y(p_x, p_y) vanishes identically: a shared factor",)


def test_roots_past_counts_the_open_ray():
    # roots 1, sqrt(5), 7/3 and 4: bisection counts three past 1, Descartes'
    # rule settles one past 3 and none past 4; only the closed ray holds 4
    def roots_past(c, lo):
        return uni.count_roots(c, lo, uni.root_bound(c))

    res = parse_polynomial("(y - 1)*(3*y - 7)*(y^2 - 5)*(y - 4)").restricted_to_x(0)
    assert roots_past(res, Fraction(1)) == 3
    assert roots_past(res, Fraction(3)) == 1
    assert roots_past(res, Fraction(4)) == 0
    assert not tongue._root_free_from(res, Fraction(4))
    assert tongue._root_free_from(res, Fraction(4), closed=False)
    assert tongue._first_power_past(res, Fraction(1), closed=True) == 8
    assert tongue._first_power_past(res, Fraction(1), closed=False) == 4
    # (y - 3)^2 + 1 has two sign changes past 1 and past 2 but no real root:
    # bisection decides, and x0 = 1 stands
    res = parse_polynomial("y^2 - 6*y + 10").restricted_to_x(0)
    assert roots_past(res, Fraction(1)) == 0
    assert tongue._first_power_past(res, Fraction(1), closed=True) == 1


def test_barrier_is_placed_below_a_peak_under_1e_minus_9():
    # x0 = 262144, h = y - (2^34 + 2)*y^2 peaks at ~1.5e-11: a denominator
    # bound of 10^9 alone rounds the barrier to 0
    cert = tongue_certificate(parse_polynomial("y - ((x - 131072)^2 + 2)*y^2"))
    assert cert.status == VERIFIED
    prof = cert.region.profile
    assert prof.x0 == 262144
    assert 0 < prof.t0 < Fraction(1, 10**9)
    peak = Fraction(1, 4 * (2**34 + 2))
    assert abs(prof.t0 - peak / 2) <= peak / 8


def test_level_sets_p3(p3, region3):
    schedule = default_schedule(region3.profile.t0)
    report = check_level_sets(region3, schedule)
    assert report.passed
    assert not report.failures
    assert len(report.records) == 30
    by_class = {}
    for rec in report.records:
        by_class.setdefault(rec.classification, []).append(rec)
        assert rec.ok
        assert not rec.closed_loop_detected
    assert len(by_class[SEGMENT_ARC]) == 20
    for rec in by_class[SEGMENT_ARC]:
        assert rec.component_count == 1
        assert rec.boundary_endpoint_count == 2
    assert all(r.t <= 0 or r.t > float(region3.profile.t0) for r in by_class[EMPTY])
    assert all(r.t > float(region3.profile.t0) for r in by_class.get(CONTAINED_IN_B, []))


def test_certify_path_extracts_no_raster_level(monkeypatch, capsys):
    # the levels are decided exactly: the drawing raster is never consulted
    calls = []
    extract = render._extract_level

    def counted(raster, t):
        calls.append(t)
        return extract(raster, t)

    monkeypatch.setattr(render, "_extract_level", counted)
    code = run_command(["certify", "y + x^2*y^2", "--tongue", "--falsify", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tongue"]["status"] == VERIFIED
    assert calls == []


def test_level_endpoints_match_exact_root_count(region3):
    # the record's segment ends are the roots of h - t below f(x0) = 1
    prof = region3.profile
    for k in (1, 7, 20):
        t = prof.t0 * Fraction(k, 20)
        shifted = list(prof.h_coeffs)
        shifted[0] -= t
        exact = uni.count_roots(shifted, Fraction(0), Fraction(1))
        report = check_level_sets(region3, [t])
        (rec,) = report.records
        assert rec.boundary_endpoint_count == exact == 2


def test_pocket_bbox_brackets_crossings(region3):
    # the t0 = 1/8 arc of y - x^2*y^2 has its vertical tangency where
    # 1 - 2x^2*y = 0, at x = sqrt(2); p_x = -2xy^2 has no zero in V, so no
    # horizontal tangency widens [a, b]
    report = check_level_sets(region3, default_schedule(region3.profile.t0))
    assert report.pocket_bbox is not None
    x_lo, x_hi, y_lo, y_hi = report.pocket_bbox
    prof = region3.profile
    assert x_lo == 1.0
    assert abs(x_hi - SQ2) <= 1e-13
    assert abs(y_lo - prof.a) <= 1e-13
    assert abs(y_hi - prof.b) <= 1e-13


def test_levels_above_barrier_fit_in_pocket(region3):
    t0 = region3.profile.t0
    report = check_level_sets(region3, [t0 * Fraction(9, 8)])
    (rec,) = report.records
    assert rec.ok
    assert rec.classification == CONTAINED_IN_B


def test_far_levels_above_barrier_are_empty(region3):
    report = check_level_sets(region3, [Fraction(4)])
    (rec,) = report.records
    assert rec.classification == EMPTY
    assert rec.ok


def test_nonpositive_levels_are_empty(region3):
    report = check_level_sets(region3, [Fraction(0), Fraction(-1)])
    for rec in report.records:
        assert rec.classification == EMPTY
        assert rec.ok


def test_default_schedule_shape():
    t0 = Fraction(1, 8)
    sched = default_schedule(t0)
    assert len(sched) == 30
    assert sum(1 for t in sched if t <= 0) == 5
    assert sum(1 for t in sched if 0 < t <= t0) == 20
    assert sum(1 for t in sched if t > t0) == 5
    assert all(isinstance(t, Fraction) for t in sched)


def test_extract_polylines_stay_inside(region3):
    t0 = region3.profile.t0
    trace = boundary_trace(region3, 50.0)
    raster = LevelRaster(region3.poly, region3, trace, GridSpec(400, 400))
    f = boundary_interpolator(trace)
    for t in (t0 * Fraction(k, 4) for k in (1, 2, 3)):
        comps = raster.components(float(t))
        assert comps
        for comp, _ in comps:
            for x, y in comp:
                assert 1.0 - 1e-9 <= x <= 50.0 + 1e-9
                assert -1e-9 <= y
                assert y <= float(f(x)) + 1e-6


def test_tongue_certificate_p3(p3):
    cert = tongue_certificate(p3, grid=GridSpec(x_max=50.0))
    assert cert.status == VERIFIED
    assert not cert.reasons
    assert cert.region is not None
    assert cert.level_report.passed


def test_tongue_certificate_p1(p1):
    cert = tongue_certificate(p1, grid=GridSpec(x_max=50.0))
    assert cert.status == VERIFIED


def test_tongue_certificate_swap_case(swap_case):
    cert = tongue_certificate(swap_case, grid=GridSpec(x_max=50.0))
    assert cert.status == VERIFIED
    assert cert.region.transform == compose_transforms(SWAP, NEGATE_Y)
    assert cert.region.flipped
    assert cert.region.profile.t0 == Fraction(1, 8)


def test_strip_top_below_the_isolation_width_fails_with_the_reason():
    # f(1) = 2^-200: the isolating interval of f(x0) starts at 0, so no exact
    # point below it is known, and the region cannot be assembled
    cert = tongue_certificate(parse_polynomial(f"y + {2**200}*x^2*y^2"))
    assert cert.status == FAILED and cert.region is None
    assert cert.reasons == ("p(x0, .) has no positive root above 1e-12, x0 = 1",)


def test_tongue_certificate_rejects_uncertified():
    cert = tongue_certificate(parse_polynomial("x^2 + y^2"))
    assert cert.status == FAILED
    assert cert.region is None
    assert any("criterion" in r for r in cert.reasons)


def test_auto_horizon_picks_flat_tail(region3):
    trace = boundary_trace(region3)  # no x_max given
    x_end = trace.samples[-1][0]
    assert x_end >= 50.0
    # beyond the horizon the strip is thinner than a twentieth of the barrier
    f = boundary_interpolator(trace)
    assert float(f(x_end)) < float(region3.profile.t0)


def test_auto_horizon_never_ends_before_x0():
    # the critical point (100000, 1/2) puts x0 at 2^17, and the scheduled
    # levels still reach x = 2^19, where the horizon's 1e5 cap stops it:
    # the drawing then ends at 4 x0, not before x0
    region = build_tongue(parse_polynomial("y - y^2 - 1/10000000000*(x - 100000)^2*y^2"))
    assert region.x0 == 2**17
    assert boundary_trace(region).samples[-1][0] == 2.0**19


def test_build_tongue_doubles_past_planted_critical_point():
    # gradient vanishes at (2, 1/4), a root of R: the exact x0 is the first
    # power of two past it, and the region verifies there
    p = parse_polynomial("y - (x^2 - 4*x + 6)*y^2")
    region = build_tongue(p)
    assert region.x0 == 4
    assert region.profile.f_x0 == 1 / 6  # the root 1/6 of y - 6*y^2, to the float
    cert = tongue_certificate(p)
    assert cert.status == VERIFIED
    assert cert.region.x0 == 4


@pytest.mark.parametrize(
    "text, x0",
    [("2*x^3*y - x^2*y - 2*x", 8), ("y - x^2*y^2 - x^2*y^3", 2)],
)
def test_exact_x0_verifies_where_the_sampled_start_did_not(text, x0):
    # both have a root of R in [1, x0) that is no critical point in the
    # strip; a start accepted there leaves (H1) false, the exact x0 does not
    cert = tongue_certificate(parse_polynomial(text))
    assert cert.status == VERIFIED, cert.reasons
    assert cert.region.x0 == x0


@pytest.mark.parametrize("text", ["y + x^2*y^2", "y - (x^2 - 4*x + 6)*y^2"])
def test_tongue_certificate_takes_each_resultant_once(monkeypatch, text):
    # R = Res_y(p_x, p_y) and D = Res_y(p, p_y) are taken once, for the
    # x0 decision, and handed to the level argument; y + x^2*y^2 is flipped
    calls = []
    resultant = uni.resultant_y

    def counted(f, g):
        calls.append((f, g))
        return resultant(f, g)

    monkeypatch.setattr(uni, "resultant_y", counted)
    cert = tongue_certificate(parse_polynomial(text))
    assert cert.status == VERIFIED
    p = cert.region.poly
    px, py = p.partial_derivative("x"), p.partial_derivative("y")
    for f, g in ((px, py), (p, py)):
        assert sum(call in ((f, g), (-f, -g)) for call in calls) == 1


def test_image_values_trapped_below_quarter(swap_case):
    # transformed tongue of x*(1 + x*y): p* = y - x*y^2, whose restriction
    # peaks at 1/4; with no interior critical points every region value
    # must stay inside (0, 1/4]
    region = build_tongue(swap_case)
    assert str(region.poly) == "-x*y^2 + y"
    f = boundary_interpolator(boundary_trace(region, 60.0))
    rng = random.Random(4242)
    top = 0.0
    for _ in range(200000):
        x = math.exp(rng.uniform(0.0, math.log(60.0)))
        y = rng.uniform(0.0, float(f(x)))
        if y == 0.0:
            continue
        v = region.poly.evaluate_approx(x, y)
        assert 0.0 < v <= 0.25 + 1e-12
        top = max(top, v)
    assert top > 0.24  # the bound is sharp near the segment side


FIXTURES = (
    "y + x*y^2 + y^4",
    "y + x*y^3",
    "y + y^2 + x*y^3",
    "y + x^2*y^2",
    "y + y^3 + x^2*y^2",
    "y + y^2 + y^3 + x^2*y^2",
    "x + x^2*y",
    "y - (x^2 - 4*x + 6)*y^2",
)


@pytest.fixture(scope="module")
def fixture_certs():
    return {text: tongue_certificate(parse_polynomial(text)) for text in FIXTURES}


def lowest_positive_transform(region):
    # the region's poly is in first-quadrant coordinates already
    return branches.positive_asymptote(region.poly)[0]


def exact_strip(p, x0):
    py = p.partial_derivative("y")
    r = uni.resultant_y(p.partial_derivative("x"), py)
    return tongue._ExactStrip(p, x0, r, uni.resultant_y(p, py))


def level_at(cert, t):
    (rec,) = [r for r in cert.level_report.records if r.t == float(t)]
    return rec


def test_double_root_at_the_barrier_peak_gives_no_end(p3, region3):
    # h = y - y^2 peaks at 1/4 = 2*t0 at y = 1/2, a double root of h - 2*t0;
    # p_x = -2x*y^2 < 0 there and h - 2*t0 < 0 beside it, so the level only
    # touches the segment from outside V
    t = 2 * region3.profile.t0
    shifted = uni.derivative(list(region3.profile.h_coeffs))
    assert uni.ueval(shifted, Fraction(1, 2)) == 0
    strip = tongue._ExactStrip(region3.poly, region3.x0, *region3.resultants)
    assert strip.ends(t) == (0, 0, 0)
    (rec,) = check_level_sets(region3, [t]).records
    assert (rec.classification, rec.component_count, rec.boundary_endpoint_count) == (EMPTY, 0, 0)
    assert rec.ok


@pytest.mark.parametrize("text", ["y + x*y^2 + y^4", "y + x*y^3", "y + y^2 + y^3 + x^2*y^2"])
def test_near_tangent_levels_at_twice_the_barrier(fixture_certs, text):
    # t0 is a rational just below half the peak of h, so h - 2*t0 has two
    # simple roots a hair apart: a small arc inside the pocket
    cert = fixture_certs[text]
    rec = level_at(cert, 2 * cert.region.profile.t0)
    assert rec.classification == CONTAINED_IN_B
    assert rec.component_count == 1
    assert rec.boundary_endpoint_count == 2
    assert rec.ok


def test_no_fixture_needs_a_trace(monkeypatch):
    def untraceable(*args):
        raise AssertionError("the certificate traced a branch")

    monkeypatch.setattr(branches, "trace_branch", untraceable)
    for text in FIXTURES:
        assert tongue_certificate(parse_polynomial(text)).status == VERIFIED, text


def test_raster_agrees_with_exact_counts(fixture_certs):
    # the drawing raster at 1000^2 finds the one arc and its two segment ends
    for text, cert in fixture_certs.items():
        assert cert.status == VERIFIED, text
        region = cert.region
        x0 = float(region.x0)
        trace = boundary_trace(region)
        assert lowest_positive_transform(region) == IDENTITY, text
        raster = LevelRaster(region.poly, region, trace, GridSpec())
        for k in range(1, 21):
            t = float(region.profile.t0 * Fraction(k, 20))
            rec = level_at(cert, t)
            assert (rec.component_count, rec.boundary_endpoint_count) == (1, 2), (text, k)
            comps = raster.components(t)
            assert len(comps) == 1, (text, k)
            pts, closed = comps[0]
            assert not closed
            assert all(abs(x - x0) <= 1e-9 for x, _ in (pts[0], pts[-1])), (text, k)


def test_tangency_entering_the_strip_is_undecided():
    # p = u + x*u^2 with u = y(1 - y): h peaks at 5/16 at y = 1/2, where
    # p_x = u^2 > 0, so that level bulges into V from one segment point
    p = parse_polynomial("y*(1 - y)*(1 + x*y*(1 - y))")
    strip = exact_strip(p, Fraction(1))
    with pytest.raises(LevelSetUndecided, match="multiplicity 2"):
        strip.ends(Fraction(5, 16))
    # p grows with x on the strip, so lower levels run out to infinity
    assert strip.ends(Fraction(1, 4)) == (2, 0, 2)


def test_bottom_and_infinity_ends_are_counted():
    # p(x, 0) = x - 1 meets every level t > 0 once past x0 = 1, and far out
    # p(x, .) runs from x - 1 > t down to 0, crossing t once
    strip = exact_strip(parse_polynomial("x - 1 + y - x^2*y^2"), Fraction(1))
    assert strip.ends(Fraction(1, 16)) == (2, 1, 1)
    assert strip.ends(Fraction(1, 2)) == (0, 1, 1)
    rec = tongue._level_record(1 / 16, False, True, (2, 1, 1), True)
    assert rec.component_count == 2 and not rec.ok
    assert rec.anomalies == ("1 end(s) on the bottom side", "1 end(s) at infinity")


def test_reach_stops_at_the_first_gap_the_arc_misses():
    # roots 1, 2, 3 and probes near 1.5 and 2.5; the arc meets the lines
    # below 2 only, so going up it ends at 2, going down from 3 at 3 itself
    c = parse_polynomial("(y - 1)*(y - 2)*(y - 3)").restricted_to_x(0)
    roots = uni.isolate_roots(c)
    assert tongue._reach(c, roots, lambda q: q < 2) == 2.0
    assert tongue._reach(c, roots[::-1], lambda q: q < 2) == 3.0
    assert tongue._reach(c, roots, lambda q: True) == 3.0


def test_failed_hypothesis_names_the_fact():
    # the planted critical point (2, 1/4) puts a root of R past x0 = 1
    p = parse_polynomial("y - (x^2 - 4*x + 6)*y^2")
    with pytest.raises(LevelSetUndecided, match=r"R = Res_y\(p_x, p_y\) has a real root"):
        exact_strip(p, Fraction(1))


def test_sign_at_root_on_an_interval_that_starts_on_a_root():
    # g = y^3 - 2y has roots 0 and sqrt(2) in [0, 2); isolate_roots from
    # the end root 0 can return (0, 2) itself, and q = y - 1 is positive at
    # sqrt(2) though negative at 0
    g = [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
    q = [Fraction(-1), Fraction(1)]
    iv = uni.RootInterval(Fraction(0), Fraction(2), 1)
    assert tongue._sign_at_root(q, g, iv) == 1
    assert tongue._sign_at_root([Fraction(1), Fraction(-1)], g, iv) == -1
    (found,) = uni.isolate_roots(g, Fraction(0), Fraction(2), Fraction(2))
    assert found.lo == 0 and tongue._sign_at_root(q, g, found) == 1
