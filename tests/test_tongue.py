import math
import random
from fractions import Fraction

import numpy as np
import pytest

from jacmate.poly import NEGATE_Y, SWAP, compose_transforms, parse_polynomial
from jacmate.branches import BranchTrace
from jacmate.tongue import (
    CONTAINED_IN_B,
    EMPTY,
    FAILED,
    SEGMENT_ARC,
    VERIFIED,
    GridSpec,
    HalfLine,
    NotSingleSignedOnInterval,
    RestrictionProfile,
    TongueRegion,
    boundary_interpolator,
    build_tongue,
    check_level_sets,
    check_no_critical_points,
    default_schedule,
    extract_polylines,
    halton_points,
    restriction_profile,
    tongue_certificate,
)
from jacmate import tongue
from jacmate import univariate as uni


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
    assert region3.halfline == HalfLine(y=0.0, x_from=1.0)


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


def test_halton_points_are_deterministic_and_fill():
    u1, v1 = halton_points(256)
    u2, v2 = halton_points(256)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    assert u1.shape == (256,)
    assert np.all((u1 > 0) & (u1 < 1)) and np.all((v1 > 0) & (v1 < 1))
    # low-discrepancy: every fifth of the unit square gets a visit
    for lo in np.linspace(0, 0.8, 5):
        assert np.any((u1 >= lo) & (u1 < lo + 0.2))
        assert np.any((v1 >= lo) & (v1 < lo + 0.2))


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
        halfline=HalfLine(y=0.0, x_from=x0),
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
    # resultant is identically zero and the fixed slices are examined
    cert = tongue_certificate(parse_polynomial("y + x*y^2 + (y + x*y^2)^2"))
    assert cert.status == VERIFIED
    assert cert.critical_point_check.slices_checked > 0


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
    grid = GridSpec(x_max=50.0)
    schedule = default_schedule(region3.profile.t0)
    report = check_level_sets(region3.poly, region3, schedule, grid)
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


def test_level_endpoints_match_exact_root_count(region3):
    # grid says two boundary endpoints; sturm on h - t must agree
    prof = region3.profile
    grid = GridSpec(x_max=50.0)
    for k in (1, 7, 20):
        t = prof.t0 * Fraction(k, 20)
        shifted = list(prof.h_coeffs)
        shifted[0] -= t
        exact = uni.count_roots(shifted, Fraction(0), Fraction(1))
        report = check_level_sets(region3.poly, region3, [t], grid)
        (rec,) = report.records
        assert rec.boundary_endpoint_count == exact == 2


def test_pocket_bbox_brackets_crossings(region3):
    grid = GridSpec(x_max=50.0)
    report = check_level_sets(
        region3.poly, region3, default_schedule(region3.profile.t0), grid
    )
    assert report.pocket_bbox is not None
    x_lo, x_hi, y_lo, y_hi = report.pocket_bbox
    prof = region3.profile
    dy = prof.f_x0 / (grid.ny - 1)
    assert x_lo <= 1.0 <= x_hi
    assert abs(y_lo - prof.a) <= 2 * dy
    assert abs(y_hi - prof.b) <= 2 * dy
    assert x_hi < 5.0  # the pocket hugs the segment side


def test_levels_above_barrier_fit_in_pocket(region3):
    grid = GridSpec(x_max=50.0)
    t0 = region3.profile.t0
    report = check_level_sets(
        region3.poly, region3, [t0 * Fraction(9, 8)], grid
    )
    (rec,) = report.records
    assert rec.ok
    assert rec.classification == CONTAINED_IN_B


def test_far_levels_above_barrier_are_empty(region3):
    grid = GridSpec(x_max=50.0)
    report = check_level_sets(region3.poly, region3, [Fraction(4)], grid)
    (rec,) = report.records
    assert rec.classification == EMPTY
    assert rec.ok


def test_nonpositive_levels_are_empty(region3):
    grid = GridSpec(x_max=50.0)
    report = check_level_sets(
        region3.poly, region3, [Fraction(0), Fraction(-1)], grid
    )
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
    lines = extract_polylines(
        region3.poly, region3, [t0 * Fraction(k, 4) for k in (1, 2, 3)], GridSpec(400, 400, 50.0)
    )
    f = boundary_interpolator(region3.boundary_trace)
    assert lines
    for t, comps in lines:
        assert comps
        for comp in comps:
            for x, y in comp:
                assert 1.0 - 1e-9 <= x <= 50.0 + 1e-9
                assert -1e-9 <= y
                assert y <= float(f(x)) + 1e-6


def test_tongue_certificate_p3(p3):
    cert = tongue_certificate(p3, grid=GridSpec(x_max=50.0))
    assert cert.status == VERIFIED
    assert not cert.reasons
    assert cert.region is not None
    assert cert.critical_point_check.passed
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
    assert cert.critical_point_check is region.critical_point_check
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
