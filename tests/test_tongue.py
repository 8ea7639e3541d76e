import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacmate.poly import NEGATE_Y, SWAP, compose_transforms, parse_polynomial
from jacmate.branches import BranchTrace
from jacmate.render import LevelRaster
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
    RestrictionProfile,
    TongueRegion,
    boundary_interpolator,
    build_tongue,
    check_level_sets,
    check_no_critical_points,
    default_schedule,
    restriction_profile,
    tongue_certificate,
)
from jacmate import render, tongue
from jacmate import univariate as uni
from jacmate.cli import run_command


SQ2 = 2**0.5


@pytest.fixture(scope="module")
def region3(p3):
    return build_tongue(p3, grid=GridSpec(x_max=50.0))


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
    region = build_tongue(p3, x0=2, grid=GridSpec(x_max=50.0))
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
    # the flipped curve is y = 1/x^2 exactly
    for x, y in region3.boundary_trace.samples:
        assert abs(y - 1.0 / (x * x)) <= 1e-8 / (x * x)


def test_boundary_interpolator_power_law(region3):
    f = boundary_interpolator(region3.boundary_trace)
    xs = np.geomspace(1.0, 200.0, 64)  # extends past the trace on purpose
    want = 1.0 / xs**2
    got = np.asarray(f(xs))
    assert np.all(np.abs(got - want) <= 1e-6 * want)


def test_critical_point_sweep_clean_p3(p3, region3):
    # R = Res_y(p_x, p_y) = -2x has no root in [1, 50]: no slice to examine
    report = check_no_critical_points(region3.poly, region3, GridSpec(x_max=50.0))
    assert report.passed
    assert not report.witnesses
    assert report.slices_checked == 0
    assert not report.degenerate


def test_critical_point_sweep_degenerate_window(region3):
    report = check_no_critical_points(region3.poly, region3, GridSpec(x_max=0.5))
    assert report.degenerate
    assert report.passed


def fake_region(poly, f_height, x0=1.0):
    # hand-built strip of constant height; enough structure for the sweeps
    samples = tuple((float(x), f_height) for x in (1, 2, 4, 8, 16))
    trace = BranchTrace(samples=samples, theta=Fraction(0), residual_bound=0.0, ratio_bounds=(1.0, 1.0))
    profile = RestrictionProfile(
        x0=Fraction(int(x0)),
        f_x0=f_height,
        t0=Fraction(1, 8),
        a=0.25,
        b=0.75,
        critical_points_of_h=(0.5,),
        h_coeffs=(Fraction(0), Fraction(1), Fraction(-1)),
        a_interval=(Fraction(1, 4), Fraction(1, 4)),
        b_interval=(Fraction(3, 4), Fraction(3, 4)),
    )
    return TongueRegion(
        transform=NEGATE_Y,
        flipped=False,
        poly=poly,
        x0=Fraction(int(x0)),
        boundary_trace=trace,
        profile=profile,
        critical_point_check=None,
    )


def test_critical_point_sweep_finds_planted_line():
    # dp/dy = 1 - 3y^2 vanishes along y = 1/sqrt(3); dp/dx is identically 0
    p = parse_polynomial("y - y^3")
    region = fake_region(p, f_height=1.0)
    report = check_no_critical_points(p, region, GridSpec(x_max=10.0))
    assert not report.passed
    ys = {round(w[1], 6) for w in report.witnesses}
    assert round(1 / math.sqrt(3), 6) in ys


def test_critical_point_sweep_finds_isolated_point():
    # gradient of y - x*y^2 + ... pick p with interior critical point:
    # p = y - y^2 - (x - 2)^2 * y^2 has dp/dx = -2(x-2)y^2,
    # dp/dy = 1 - 2y - 2(x-2)^2 y; at x = 2: y = 1/2
    p = parse_polynomial("y - y^2 - (x - 2)^2*y^2")
    region = fake_region(p, f_height=2.0)
    report = check_no_critical_points(p, region, GridSpec(x_max=10.0))
    assert not report.passed
    assert any(abs(wx - 2.0) < 1e-6 and abs(wy - 0.5) < 1e-6 for wx, wy in report.witnesses)


def has_witness_near(report, x, y):
    return any(abs(wx - x) < 1e-6 and abs(wy - y) < 1e-6 for wx, wy in report.witnesses)


def test_critical_point_on_double_root_slice():
    # p_y(2, y) = 12(y - 1)^2: a double root of p_y over a rational root of R
    p = parse_polynomial("-x^2*y^2 + x^2*y^3 + 3*x^2*y - x^3*y^2")
    report = check_no_critical_points(p, fake_region(p, 2.0), GridSpec(x_max=10.0))
    assert not report.passed
    assert has_witness_near(report, 2.0, 1.0)


def test_critical_point_on_double_root_at_irrational_x():
    # the same point moved to x = sqrt(5): on the slice refined to 1e-14 the
    # double root of p_y splits off the real line, and only the root of p_yy
    # next to it is a candidate
    p = parse_polynomial(
        "-(x^2 - 3)^2*y^2 + (x^2 - 3)^2*y^3 + 3*(x^2 - 3)^2*y - (x^2 - 3)^3*y^2"
    )
    report = check_no_critical_points(p, fake_region(p, 2.0, x0=2), GridSpec(x_max=10.0))
    assert not report.passed
    assert has_witness_near(report, math.sqrt(5), 1.0)


def test_critical_point_at_irrational_x():
    # p_x and p_y vanish together at (1 + sqrt(2), 1/2)
    p = parse_polynomial("y - y^2 - (x^2 - 2*x - 1)^2*y^2")
    report = check_no_critical_points(p, fake_region(p, 2.0, x0=2), GridSpec(x_max=10.0))
    assert not report.passed
    assert has_witness_near(report, 1 + SQ2, 0.5)


def test_shared_factor_partials_use_the_slice_schedule():
    # p = u + u^2 with u = y + x*y^2: both partials carry 1 + 2u, so the
    # resultant is identically zero and the fixed slices are examined; the
    # exact level argument needs R != 0, so the levels stay undecided
    cert = tongue_certificate(parse_polynomial("y + x*y^2 + (y + x*y^2)^2"))
    assert cert.region.critical_point_check.slices_checked > 0
    assert cert.status == INCONCLUSIVE
    assert cert.level_report is None
    assert cert.reasons == ("R = Res_y(p_x, p_y) vanishes identically: a shared factor",)


def test_resultant_roots_on_the_closed_window():
    # roots 1 and 4 sit on the window's ends, 7/3 is rational, sqrt(5) is not
    res = parse_polynomial("(y - 1)*(3*y - 7)*(y^2 - 5)*(y - 4)").restricted_to_x(0)
    roots = tongue._resultant_roots(res, Fraction(1), Fraction(4))
    assert roots[0] == 1 and roots[2] == Fraction(7, 3) and roots[3] == 4
    assert abs(roots[1] - Fraction(math.sqrt(5))) < Fraction(1, 10**14)
    # -2x keeps its sign past 1; x - 60 has its root outside [1, 50]
    for text in ("-2*y", "y - 60"):
        res = parse_polynomial(text).restricted_to_x(0)
        assert tongue._resultant_roots(res, Fraction(1), Fraction(50)) == []


def test_level_sets_p3(p3, region3):
    schedule = default_schedule(region3.profile.t0)
    report = check_level_sets(region3.poly, region3, schedule)
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
        report = check_level_sets(region3.poly, region3, [t])
        (rec,) = report.records
        assert rec.boundary_endpoint_count == exact == 2


def test_pocket_bbox_brackets_crossings(region3):
    # the t0 = 1/8 arc of y - x^2*y^2 has its vertical tangency where
    # 1 - 2x^2*y = 0, at x = sqrt(2); p_x = -2xy^2 has no zero in V, so no
    # horizontal tangency widens [a, b]
    report = check_level_sets(
        region3.poly, region3, default_schedule(region3.profile.t0)
    )
    assert report.pocket_bbox is not None
    x_lo, x_hi, y_lo, y_hi = report.pocket_bbox
    prof = region3.profile
    assert x_lo == 1.0
    assert abs(x_hi - SQ2) <= 1e-13
    assert abs(y_lo - prof.a) <= 1e-13
    assert abs(y_hi - prof.b) <= 1e-13


def test_levels_above_barrier_fit_in_pocket(region3):
    t0 = region3.profile.t0
    report = check_level_sets(region3.poly, region3, [t0 * Fraction(9, 8)])
    (rec,) = report.records
    assert rec.ok
    assert rec.classification == CONTAINED_IN_B


def test_far_levels_above_barrier_are_empty(region3):
    report = check_level_sets(region3.poly, region3, [Fraction(4)])
    (rec,) = report.records
    assert rec.classification == EMPTY
    assert rec.ok


def test_nonpositive_levels_are_empty(region3):
    report = check_level_sets(region3.poly, region3, [Fraction(0), Fraction(-1)])
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
    raster = LevelRaster(region3.poly, region3, GridSpec(400, 400, 50.0))
    f = boundary_interpolator(region3.boundary_trace)
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
    assert cert.region.critical_point_check.passed
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


def test_tongue_certificate_rejects_uncertified():
    cert = tongue_certificate(parse_polynomial("x^2 + y^2"))
    assert cert.status == FAILED
    assert cert.region is None
    assert any("criterion" in r for r in cert.reasons)


def test_auto_horizon_picks_flat_tail(p3):
    region = build_tongue(p3)  # no x_max given
    x_end = region.boundary_trace.samples[-1][0]
    assert x_end >= 50.0
    # beyond the horizon the strip is thinner than a twentieth of the barrier
    f = boundary_interpolator(region.boundary_trace)
    assert float(f(x_end)) < float(region.profile.t0)


def test_build_tongue_doubles_past_planted_critical_point():
    # gradient vanishes at (2, 1/4), inside the strip for x0 in {1, 2};
    # doubling must walk the start past it and then verify cleanly
    p = parse_polynomial("y - (x^2 - 4*x + 6)*y^2")
    region = build_tongue(p)
    assert region.x0 == 4
    cert = tongue_certificate(p)
    assert cert.status == VERIFIED
    assert cert.region.x0 == 4


def test_tongue_certificate_sweeps_once_per_attempt(monkeypatch):
    # x0 = 1 and 2 hold the planted critical point, x0 = 4 is accepted;
    # the accepted sweep is carried along, not run again
    calls = []
    sweep = tongue.check_no_critical_points

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(tongue, "check_no_critical_points", counted)
    cert = tongue_certificate(parse_polynomial("y - (x^2 - 4*x + 6)*y^2"))
    assert [float(region.x0) for _, region, _ in calls] == [1.0, 2.0, 4.0]
    region = cert.region
    assert region.critical_point_check == sweep(region.poly, region, GridSpec())


def test_image_values_trapped_below_quarter(swap_case):
    # transformed tongue of x*(1 + x*y): p* = y - x*y^2, whose restriction
    # peaks at 1/4; with no interior critical points every region value
    # must stay inside (0, 1/4]
    region = build_tongue(swap_case, grid=GridSpec(x_max=60.0))
    assert str(region.poly) == "-x*y^2 + y"
    f = boundary_interpolator(region.boundary_trace)
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
    strip = tongue._ExactStrip(region3.poly, region3.x0)
    assert strip.ends(t) == (0, 0, 0)
    (rec,) = check_level_sets(region3.poly, region3, [t]).records
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


def test_raster_agrees_with_exact_counts(fixture_certs):
    # the drawing raster at 1000^2 finds the one arc and its two segment ends
    for text, cert in fixture_certs.items():
        assert cert.status == VERIFIED, text
        region = cert.region
        x0 = float(region.x0)
        raster = LevelRaster(region.poly, region, GridSpec())
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
    strip = tongue._ExactStrip(p, Fraction(1))
    with pytest.raises(LevelSetUndecided, match="multiplicity 2"):
        strip.ends(Fraction(5, 16))
    # p grows with x on the strip, so lower levels run out to infinity
    assert strip.ends(Fraction(1, 4)) == (2, 0, 2)


def test_bottom_and_infinity_ends_are_counted():
    # p(x, 0) = x - 1 meets every level t > 0 once past x0 = 1, and far out
    # p(x, .) runs from x - 1 > t down to 0, crossing t once
    strip = tongue._ExactStrip(parse_polynomial("x - 1 + y - x^2*y^2"), Fraction(1))
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
        tongue._ExactStrip(p, Fraction(1))


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
