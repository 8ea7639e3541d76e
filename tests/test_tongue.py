import dataclasses
import itertools
import math
import pathlib
import random
import xml.dom.minidom
from fractions import Fraction

import pytest

from jacmate.certificate import tongue_to_dict
from jacmate.poly import (
    IDENTITY,
    NEGATE_Y,
    SWAP,
    BivariatePolynomial,
    apply_transform,
    compose_transforms,
    parse_polynomial,
)
from jacmate.polygon import corollary_certificate
from jacmate.render import render_tongue_svg
from jacmate.tongue import (
    CONTAINED_IN_B,
    EMPTY,
    FAILED,
    INCONCLUSIVE,
    SEGMENT_ARC,
    VERIFIED,
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


SQ2 = 2**0.5


def certify_tongue(p):
    # the criterion is decided once and handed down, as the CLI does
    return tongue_certificate(p, corollary_certificate(p))


def region_of(p, x0=1):
    return build_tongue(p, corollary_certificate(p), x0)


@pytest.fixture(scope="module")
def region3(p3):
    return region_of(p3)


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
    assert prof.f_x0_interval[0] <= 1 <= prof.f_x0_interval[1]
    assert list(prof.h_coeffs) == [Fraction(0), Fraction(1), Fraction(-1)]
    assert prof.a == pytest.approx((1 - SQ2 / 2) / 2, abs=1e-9)
    assert prof.b == pytest.approx((1 + SQ2 / 2) / 2, abs=1e-9)
    assert prof.a_interval[0] <= Fraction(prof.a).limit_denominator(10**12) <= prof.b_interval[1]


def test_profile_at_shifted_start(p3):
    # same curve entered at x0 = 2: h(y) = y - 4y^2 peaks at 1/16
    region = region_of(p3, x0=2)
    prof = region.profile
    assert region.x0 == 2
    assert prof.t0 == Fraction(1, 32)
    assert list(prof.h_coeffs) == [Fraction(0), Fraction(1), Fraction(-4)]
    assert prof.a == pytest.approx((1 - SQ2 / 2) / 8, abs=1e-9)
    assert prof.b == pytest.approx((1 + SQ2 / 2) / 8, abs=1e-9)


def test_barrier_is_exactly_verified(region3):
    # two simple crossings of h - t0 inside (0, f_x0), none outside [a, b]
    prof = region3.profile
    shifted = list(prof.h_coeffs)
    shifted[0] -= prof.t0
    assert uni.count_roots(shifted, Fraction(0), Fraction(1)) == 2
    hp = uni.derivative(list(prof.h_coeffs))
    assert uni.count_roots(hp, Fraction(0), prof.a_interval[0]) == 0
    assert uni.count_roots(hp, prof.b_interval[1], Fraction(1)) == 0


def test_drawn_top_border_brackets_the_closed_form(region3):
    # the flipped curve is y = 1/x^2 exactly: on every line of the drawing
    # its isolating interval holds 1/x^2 and is no wider than the width
    slices = render._slices(region3)
    assert slices.width == Fraction(1, 2**16)
    lines = render._lines(Fraction(1), Fraction(50), False)
    assert len(lines) == render.SLICE_LINES and (lines[0], lines[-1]) == (1, 50)
    for x in lines:
        _, top = slices.top(x)
        assert top.lo <= 1 / x**2 <= top.hi and top.hi - top.lo <= slices.width


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
    cert = certify_tongue(parse_polynomial("y + x*y^2 + (y + x*y^2)^2"))
    assert cert.status == INCONCLUSIVE
    assert cert.region is None and cert.level_report is None
    assert cert.reasons == ("R = Res_y(p_x, p_y) vanishes identically: a shared factor",)


def test_roots_past_counts_the_open_ray():
    # roots 1, sqrt(5), 7/3 and 4: bisection counts three past 1, Descartes'
    # rule settles one past 3 and none past 4; the closed ray holds 4
    def roots_past(c, lo):
        return uni.count_roots(c, lo, uni.root_bound(c))

    res = parse_polynomial("(y - 1)*(3*y - 7)*(y^2 - 5)*(y - 4)").restricted_to_x(0)
    assert roots_past(res, Fraction(1)) == 3
    assert roots_past(res, Fraction(3)) == 1
    assert roots_past(res, Fraction(4)) == 0
    assert not tongue._root_free_from(res, Fraction(4))
    assert tongue._first_power_past(res, Fraction(1)) == 8
    # (y - 3)^2 + 1 has two sign changes past 1 and past 2 but no real root:
    # bisection decides, and x0 = 1 stands
    res = parse_polynomial("y^2 - 6*y + 10").restricted_to_x(0)
    assert roots_past(res, Fraction(1)) == 0
    assert tongue._first_power_past(res, Fraction(1)) == 1


def test_critical_points_past_the_float_cut_refuse_the_barrier():
    # h = y(1 - y)((y - c)^2 + eps), c = 1 - 10^-10, eps = 10^-21, has a
    # local min and max at 0.99999999991 and 0.99999999996: past the float
    # cut f_x0 (1 - 10^-9) up to which the critical values are read, below
    # f(x0) = 1.  A level between their values, near 1.4e-31 and far below
    # the barrier 0.0527 that the peak near 1/4 gives, has four ends; the
    # barrier check reads h' up to the top of f(x0)'s interval and refuses
    h = parse_polynomial(
        "y*(1 - y)*((y - 9999999999/10000000000)^2 + 1/1000000000000000000000)"
    ).restricted_to_x(1)
    top = uni.isolate_roots(h, Fraction(0))[0]
    low, high = uni.isolate_roots(uni.derivative(h), Fraction(0), top.hi)[1:]
    cut = Fraction(uni.float_root(h, top)) * (1 - Fraction(1, 10**9))
    assert cut < low.lo and high.hi < 1
    t = (uni.ueval(h, low.midpoint) + uni.ueval(h, high.midpoint)) / 2
    assert 0 < t < Fraction(1, 10**30)
    assert uni.count_roots(tongue._shifted_by(h, t), Fraction(0), top.hi) == 4
    with pytest.raises(NotSingleSignedOnInterval, match="could not place a rational barrier"):
        restriction_profile(h, Fraction(1), top)


def test_barrier_is_placed_below_a_peak_under_1e_minus_9():
    # x0 = 262144, h = y - (2^34 + 2)*y^2 peaks at ~1.5e-11: a denominator
    # bound of 10^9 alone rounds the barrier to 0
    cert = certify_tongue(parse_polynomial("y - ((x - 131072)^2 + 2)*y^2"))
    assert cert.status == VERIFIED
    prof = cert.region.profile
    assert cert.region.x0 == 262144
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
    # under f(x) = 1/x^2, one arc per level, every point on the level to
    # the isolation width (|p_y| <= 1 there), from the segment side back to it
    slices = render._slices(region3)
    lines = render._lines(Fraction(1), Fraction(50), False)
    for k in (1, 2, 3):
        t = region3.profile.t0 * Fraction(k, 4)
        (pts,) = render._level_polylines(slices, lines, t)
        assert pts[0][0] == pts[-1][0] == 1.0 and pts[0][1] < pts[-1][1]
        for x, y in pts:
            assert 1.0 <= x <= 50.0 and 0.0 < y < 1.0 / (x * x)
            assert abs(region3.poly.evaluate_approx(x, y) - float(t)) <= float(slices.width)
    # t = 1/16 reaches out to x = 2 exactly, where p(2, .) - t = -(2y - 1/4)^2
    # has a double root: the fold's tip is one point of the one arc
    lines = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    (pts,) = render._level_polylines(slices, lines, Fraction(1, 16))
    assert len(pts) == 5 and pts[2][0] == 2.0 and abs(pts[2][1] - 0.125) <= float(slices.width)


class FixedColumns:
    """Stands in for render._Slices: the heights of the level on each line."""

    def __init__(self, *columns):
        self.columns = columns

    def level(self, xq, t):
        return self.columns[xq]


def test_folds_join_at_the_smallest_gaps():
    # four points go down to two through their nearest pair, and nested
    # folds close inside out
    assert render._close_folds([0.1, 0.5, 0.55, 0.9], 2) == ([0, 3], [(1, 2)])
    assert render._close_folds([0.1, 0.5, 0.55, 0.9], 0) == ([], [(1, 2), (0, 3)])
    # a double root, listed twice, is one fold point
    touch = FixedColumns([0.3, 0.7], [0.5, 0.5], [])
    assert render._level_polylines(touch, [0, 1, 2], None) == [
        [(0.0, 0.3), (1.0, 0.5), (0.0, 0.7)]
    ]
    # a fold opening and closing on the same pair is a closed loop; the arc
    # comes first, from its lower end, and closes at its first empty line
    island = FixedColumns([0.2, 0.8], [0.2, 0.4, 0.5, 0.8], [0.2, 0.8], [], [0.5])
    assert render._level_polylines(island, [0, 1, 2, 3, 4], None) == [
        [(0.0, 0.2), (1.0, 0.2), (2.0, 0.2), (2.0, 0.8), (1.0, 0.8), (0.0, 0.8)],
        [(1.0, 0.4), (1.0, 0.5), (1.0, 0.4)],
    ]


def test_tongue_certificate_p3(p3):
    cert = certify_tongue(p3)
    assert cert.status == VERIFIED
    assert not cert.reasons
    assert cert.region is not None
    assert cert.level_report.passed


def test_tongue_certificate_p1(p1):
    cert = certify_tongue(p1)
    assert cert.status == VERIFIED


def test_tongue_certificate_swap_case(swap_case):
    cert = certify_tongue(swap_case)
    assert cert.status == VERIFIED
    assert cert.region.transform == compose_transforms(SWAP, NEGATE_Y)
    assert cert.region.flipped
    assert cert.region.profile.t0 == Fraction(1, 8)


def test_strip_top_below_the_isolation_width_fails_with_the_reason():
    # f(1) = 2^-200: the isolating interval of f(x0) starts at 0, so no exact
    # point below it is known, and the region cannot be assembled
    cert = certify_tongue(parse_polynomial(f"y + {2**200}*x^2*y^2"))
    assert cert.status == FAILED and cert.region is None
    assert cert.reasons == ("p(x0, .) has no positive root above 1e-12, x0 = 1",)


def test_tongue_certificate_rejects_uncertified():
    cert = certify_tongue(parse_polynomial("x^2 + y^2"))
    assert cert.status == FAILED
    assert cert.region is None
    assert any("criterion" in r for r in cert.reasons)


def test_auto_horizon_picks_flat_tail(region3):
    # the level t of y - x^2*y^2 reaches x < 1/(2 sqrt(t)): sqrt(40) for the
    # lowest level t0/20 = 1/160, so 64 is the least power of two past both
    # it and 50, where the strip is far thinner than the barrier; with no
    # level report the horizon is max(50, 4 x0)
    t = region3.profile.t0 / 20
    (rec,) = check_level_sets(region3, [t]).records
    slices = render._slices(region3)
    x_end = render._horizon(slices, region3.x0, [(rec, t)])
    assert x_end == 64 and 1 / x_end**2 < region3.profile.t0
    assert render._horizon(slices, region3.x0, []) == 50


def test_auto_horizon_never_ends_before_x0():
    # the critical point (100000, 1/2) puts x0 at 2^17; the drawing's right
    # edge is past it, with or without the level report: the lowest level
    # still meets the line x = 2^19 and misses 2^20
    p = parse_polynomial("y - y^2 - 1/10000000000*(x - 100000)^2*y^2")
    cert = certify_tongue(p)
    region = cert.region
    assert region.x0 == 2**17
    assert render._horizon(render._slices(region), region.x0, []) == 2**19
    drawn = [(level_at(cert, t), t) for t in default_schedule(region.profile.t0) if t > 0]
    assert render._horizon(render._slices(region), region.x0, drawn) == 2**20
    xml.dom.minidom.parseString(render_tongue_svg(region, cert.level_report))


def test_build_tongue_doubles_past_planted_critical_point():
    # gradient vanishes at (2, 1/4), a root of R: the exact x0 is the first
    # power of two past it, and the region verifies there
    p = parse_polynomial("y - (x^2 - 4*x + 6)*y^2")
    region = region_of(p)
    assert region.x0 == 4
    assert region.profile.f_x0 == 1 / 6  # the root 1/6 of y - 6*y^2, to the float
    cert = certify_tongue(p)
    assert cert.status == VERIFIED
    assert cert.region.x0 == 4


@pytest.mark.parametrize(
    "text, x0",
    [("2*x^3*y - x^2*y - 2*x", 8), ("y - x^2*y^2 - x^2*y^3", 2)],
)
def test_exact_x0_verifies_where_the_sampled_start_did_not(text, x0):
    # both have a root of R in [1, x0) that is no critical point in the
    # strip; a start accepted there leaves (H1) false, the exact x0 does not
    cert = certify_tongue(parse_polynomial(text))
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
    cert = certify_tongue(parse_polynomial(text))
    assert cert.status == VERIFIED
    p = cert.region.poly
    px, py = p.partial_derivative("x"), p.partial_derivative("y")
    for f, g in ((px, py), (p, py)):
        assert sum(call in ((f, g), (-f, -g)) for call in calls) == 1


def test_image_values_trapped_below_quarter(swap_case):
    # transformed tongue of x*(1 + x*y): p* = y - x*y^2, whose restriction
    # peaks at 1/4; with no interior critical points every region value
    # must stay inside (0, 1/4]
    region = region_of(swap_case)
    assert str(region.poly) == "-x*y^2 + y"
    rng = random.Random(4242)
    top = 0.0
    for _ in range(200000):
        x = math.exp(rng.uniform(0.0, math.log(60.0)))
        y = rng.uniform(0.0, 1.0 / x)  # under the top border f(x) = 1/x
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
    return {text: certify_tongue(parse_polynomial(text)) for text in FIXTURES}


def orientation_of(region):
    # the region's poly is in first-quadrant coordinates already, and flipped
    return tongue.region_orientation(region.poly, corollary_certificate(region.poly))


def strip_region(p, x0):
    # p as it stands, with its profile at x0, and none of build_tongue's
    # orientation or x0 search: the level check reads h = p(x0, .), f(x0),
    # R and D from it
    h = p.restricted_to_x(x0)
    top = uni.isolate_roots(h, Fraction(0), uni.root_bound(h))[0]
    py = p.partial_derivative("y")
    r = uni.resultant_y(p.partial_derivative("x"), py)
    profile = restriction_profile(h, x0, top)
    return tongue.TongueRegion(IDENTITY, False, p, x0, profile, (r, uni.resultant_y(p, py)))


def ends_above_barrier(region, t):
    # the count that check_level_sets takes at a level t > t0
    h = list(region.profile.h_coeffs)
    h2 = uni.derivative(uni.derivative(h))
    px = region.poly.partial_derivative("x").restricted_to_x(region.x0)
    return tongue._ends_above_barrier(h, h2, px, region.profile.f_x0_interval[1], t)


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
    assert ends_above_barrier(region3, t) == 0
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


@pytest.mark.parametrize("text", FIXTURES)
def test_level_sets_take_no_elimination_in_x(monkeypatch, text):
    # the certificate eliminates y only, in R and D: the criterion rules out
    # ends at infinity, so no E(x, T) = Res_y(p - T, p_y) counts them, and
    # the pinned t0 arc bounds the pocket, so no Res_x locates its extent
    p = parse_polynomial(text)
    criterion = corollary_certificate(p)
    eliminate = uni.resultant_y
    calls = []

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(uni, "resultant_y", counted)
    cert = tongue_certificate(p, criterion)
    assert cert.status == VERIFIED
    assert len(calls) == 2


@pytest.mark.parametrize("text", FIXTURES)
def test_only_levels_above_the_barrier_are_counted(monkeypatch, text):
    # of the 30 scheduled levels, the 5 at or below 0 are empty and the 20
    # in (0, t0] follow from the barrier check (module docstring, step 4):
    # only the 5 above t0 take an end count
    ends = tongue._ends_above_barrier
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return ends(*args)

    monkeypatch.setattr(tongue, "_ends_above_barrier", counted)
    cert = certify_tongue(parse_polynomial(text))
    assert cert.status == VERIFIED
    assert len(calls) == 5 and all(t > cert.region.profile.t0 for t in calls)


@pytest.mark.parametrize("text", FIXTURES)
def test_reports_carry_no_pocket_box(fixture_certs, text):
    cert = fixture_certs[text]
    assert "pocket_bbox" not in tongue_to_dict(cert)["levels"]
    assert "stroke-dasharray" not in render_tongue_svg(cert.region, cert.level_report)


def test_degree_nine_tongue_is_verified():
    # from the slow tail of a seeded class census: R and D have degrees 79
    # and 87, and x0 = 8
    p = parse_polynomial("x^7*y^4 - 2*x^6*y^8 + 7*x^6*y^7 - 4*x^5*y^2 + 3*x^3*y^3 - y^9 - y")
    assert certify_tongue(p).status == VERIFIED


def test_no_fixture_needs_a_trace(monkeypatch):
    def untraceable(*args):
        raise AssertionError("the certificate traced a branch")

    monkeypatch.setattr(branches, "trace_branch", untraceable)
    for text in FIXTURES:
        assert certify_tongue(parse_polynomial(text)).status == VERIFIED, text


GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_SVG = {
    "y + x*y^2 + y^4": "tongue_family_y_xy2_y4.svg",
    "y + x*y^3": "tongue_family_y_xy3.svg",
    "y + y^2 + x*y^3": "tongue_family_y_y2_xy3.svg",
    "y + x^2*y^2": "tongue_family_y_x2y2.svg",
    "y + y^3 + x^2*y^2": "tongue_family_y_y3_x2y2.svg",
    "y + y^2 + y^3 + x^2*y^2": "tongue_family_y_y2_y3_x2y2.svg",
    "x + x^2*y": "tongue_swap.svg",
    "y - (x^2 - 4*x + 6)*y^2": "tongue_planted.svg",
}


@pytest.mark.parametrize("text", FIXTURES)
def test_drawing_matches_golden(fixture_certs, text):
    # the figure that `render <f> --what tongue --out F` writes, byte for byte
    cert = fixture_certs[text]
    svg = render_tongue_svg(cert.region, cert.level_report) + "\n"
    assert svg == (GOLDEN / GOLDEN_SVG[text]).read_text(encoding="utf-8")


def test_region_orientation_needs_no_branch(p3, swap_case):
    # the transform and the flip are read off the witness edge's two
    # coefficients: y + x^2*y^2 has its branch y = -1/x^2, moved up by
    # negating y, which makes a01 = -1; x + x^2*y has x = -1/y
    assert tongue.region_orientation(p3, corollary_certificate(p3)) == (NEGATE_Y, True)
    swapped = tongue.region_orientation(swap_case, corollary_certificate(swap_case))
    assert swapped == (compose_transforms(SWAP, NEGATE_Y), True)
    circle = parse_polynomial("x^2 + y^2")
    with pytest.raises(ValueError):
        tongue.region_orientation(circle, corollary_certificate(circle))


def below_top_is_negative(q):
    # the sign test on h = q(x0, .) below f(x0) at build_tongue's x0, or
    # None where R or D vanishes and build_tongue stops before any x0
    py = q.partial_derivative("y")
    r = uni.resultant_y(q.partial_derivative("x"), py)
    d = uni.resultant_y(q, py)
    if not r or not d:
        return None
    x0 = tongue._first_power_past(d, check_no_critical_points(r, Fraction(1)))
    h = q.restricted_to_x(x0)
    top = uni.isolate_roots(h, Fraction(0), uni.root_bound(h))[0]
    return uni.ueval(h, tongue._point_below(top.lo)) < 0


def class_draws(seed, attempts=2000):
    """Seeded draws of up to 6 terms, i <= 4 and j <= 5, that meet the criterion, with it."""
    rng = random.Random(seed)
    for _ in range(attempts):
        terms = {}
        if rng.random() < 0.85:
            terms[(0, 1)] = rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(1, 5)):
            terms[(rng.randint(0, 4), rng.randint(0, 5))] = rng.choice((-3, -2, -1, 1, 2, 3))
        p = BivariatePolynomial(terms)
        cert = corollary_certificate(p, allow_swap=True)
        if cert.satisfied:
            yield p, cert


def test_certified_draws_have_only_a01_y_below_j_2():
    # on seeded class members, region_orientation always finds its sign
    # change (the gcd argument in the module docstring): the first in its
    # order whose witness face has a confirmed positive root.  In its
    # coordinates no term has j = 0, the only j = 1 term is (0, 1), the
    # premise of (H3), and the flip is the sign of p below f(x0)
    draws = list(itertools.islice(class_draws(2024), 200))
    assert len(draws) == 200
    for p, cert in draws:
        transform, flipped = tongue.region_orientation(p, cert)
        for sign_t in tongue._SIGN_ORDER:
            moved = compose_transforms(cert.transform_used, sign_t)
            found = any(
                a.existence == branches.CONFIRMED and a.c_star > 0
                for a in branches.branch_candidates(apply_transform(p, moved), cert.witness_edge)
            )
            assert found == (moved == transform), str(p)
            if found:
                break
        q = apply_transform(p, transform)
        assert {ij for ij in q.support() if ij[1] <= 1} == {(0, 1)}, str(p)
        assert below_top_is_negative(q) in (flipped, None), str(p)


def far_line_count(region):
    """The level's ends at infinity, counted as the certificate once did: a reference.

    E(x, T) = Res_y(p - T, p_y) has degree <= deg_y(p_y) in T, so its
    x-coefficients are interpolated from that many + 1 levels.  Past every
    real root of E_t, the roots of p(x, .) - t in (0, f(x)) stay simple and
    never reach y = 0 or the top: one rational line past them counts the
    level's ends at infinity.
    """
    p = region.poly
    py = p.partial_derivative("y")
    levels = [uni.resultant_y(p - k, py) for k in range(py.degree_y() + 1)]
    e_in_t = [
        uni.interpolate([e[i] if i < len(e) else 0 for e in levels])
        for i in range(max(map(len, levels)))
    ]

    def count(t):
        e = uni.normalize([uni.ueval(c, t) for c in e_in_t])
        assert e, f"Res_y(p - t, p_y) vanishes identically for t = {t}"
        far = max(Fraction(2 ** math.ceil(uni.root_bound(e)).bit_length()), 2 * region.x0)
        hq = p.restricted_to_x(far)
        top = uni.isolate_roots(hq, Fraction(0), uni.root_bound(hq))[0]
        return uni.count_roots(tongue._shifted_by(hq, t), Fraction(0), top.hi)

    return count


@pytest.fixture(scope="module")
def member_certs():
    """Certificates of 40 seeded class members."""
    return [tongue_certificate(p, cert) for p, cert in itertools.islice(class_draws(7), 40)]


def test_no_scheduled_level_reaches_infinity(fixture_certs, member_certs):
    # the criterion bounds p by O(x^theta) on V, theta < 0 (module
    # docstring, step 3): the deleted far-line count reads 0 at every
    # scheduled t > 0, on the fixtures and on seeded class members
    for cert in [*fixture_certs.values(), *member_certs]:
        assert cert.status == VERIFIED
        count = far_line_count(cert.region)
        for t in default_schedule(cert.region.profile.t0):
            if t > 0:
                assert count(t) == 0, (str(cert.region.poly), t)


def test_every_level_up_to_the_barrier_has_two_simple_ends(fixture_certs, member_certs):
    # the barrier check decides every t in (0, t0] with no count (module
    # docstring, step 4); the deleted count, kept as a reference, reads two
    # simple roots of h - t in (0, top.hi) at each such scheduled t and at
    # 20 seeded random rationals in (0, t0], on the fixtures and members
    rng = random.Random(23)
    for cert in [*fixture_certs.values(), *member_certs]:
        assert cert.status == VERIFIED
        prof = cert.region.profile
        h, top_hi = list(prof.h_coeffs), prof.f_x0_interval[1]
        drawn = [prof.t0 * Fraction(rng.randint(1, 10**6), 10**6) for _ in range(20)]
        for t in [*(t for t in default_schedule(prof.t0) if 0 < t <= prof.t0), *drawn]:
            g = tongue._shifted_by(h, t)
            assert uni.count_roots(g, Fraction(0), top_hi) == 2, (str(cert.region.poly), t)
            roots = uni.isolate_roots(g, Fraction(0), top_hi)
            assert [iv.multiplicity for iv in roots] == [1, 1], (str(cert.region.poly), t)


def quotient(a, b):
    """a / b over the rationals, for a b that divides a: a reference division."""
    a, q = [Fraction(v) for v in a], []
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        q.append(c)
        shift = len(a) - len(b)
        for i, v in enumerate(b):
            a[shift + i] -= c * v
        a.pop()
    assert not any(a), "b does not divide a"
    return q[::-1]


def test_double_roots_above_the_barrier_read_off_h2(fixture_certs, member_certs):
    # the certificate decides a double root y_m of h - t by the sign of
    # h''(y_m) (module docstring, step 3); the rule it replaced divided
    # h - t by the root's factor twice and read the quotient's sign.  Both
    # agree at every scheduled t > t0 on the fixtures and the members, and
    # p_x(x0, y_m) != 0 there, by (H1); every count above t0 is even
    double_roots = 0
    for cert in [*fixture_certs.values(), *member_certs]:
        assert cert.status == VERIFIED
        region, prof = cert.region, cert.region.profile
        h, top_hi = list(prof.h_coeffs), prof.f_x0_interval[1]
        h2 = uni.derivative(uni.derivative(h))
        px = region.poly.partial_derivative("x").restricted_to_x(region.x0)
        for t in default_schedule(prof.t0):
            if t <= prof.t0:
                continue
            assert level_at(cert, t).boundary_endpoint_count % 2 == 0, (str(region.poly), t)
            g = tongue._shifted_by(h, t)
            for factor, mult in uni.squarefree_decomposition(g):
                if mult != 2:
                    continue
                rest = quotient(quotient(g, factor), factor)
                for iv in uni.isolate_roots(factor, Fraction(0), top_hi):
                    double_roots += 1
                    want = tongue._sign_at_root(rest, factor, iv)
                    assert want != 0 and tongue._sign_at_root(h2, factor, iv) == want
                    assert tongue._sign_at_root(px, factor, iv) != 0, (str(region.poly), t)
    assert double_roots >= 1
    # y + x^2*y^2 peaks at 2*t0 on the segment: h = y - y^2, t0 = 1/8
    region = fixture_certs["y + x^2*y^2"].region
    g = tongue._shifted_by(list(region.profile.h_coeffs), 2 * region.profile.t0)
    assert [mult for _, mult in uni.squarefree_decomposition(g)] == [2]


def drawn_levels(svg):
    """Level t -> its polylines, as lists of (x, y) pixel coordinates."""
    groups = xml.dom.minidom.parseString(svg).getElementsByTagName("g")
    return {
        float(g.getAttribute("data-t")): [
            [tuple(map(float, q.split(","))) for q in line.getAttribute("points").split()]
            for line in g.getElementsByTagName("polyline")
        ]
        for g in groups
    }


def test_drawing_agrees_with_exact_counts(fixture_certs):
    # every scheduled level with an arc is drawn, none left out: as many
    # polylines as the record has components, each from the segment side
    # back to it, its ends at the two exact segment ends; the figure puts
    # x0 at 46 px and y in [0, f(x0)] on [374, 46] px, rounded to 0.01 px
    for text, cert in fixture_certs.items():
        assert cert.status == VERIFIED, text
        region, report = cert.region, cert.level_report
        assert orientation_of(region) == (IDENTITY, False), text
        svg = render_tongue_svg(region, report)
        assert svg == render_tongue_svg(region, report), text
        drawn = drawn_levels(svg)
        assert sorted(drawn) == sorted(r.t for r in report.records if r.component_count), text
        prof = region.profile
        for t in default_schedule(prof.t0):
            rec = level_at(cert, t)
            if not rec.component_count:
                continue
            polylines = drawn[rec.t]
            assert len(polylines) == rec.component_count, (text, rec.t)
            g = list(prof.h_coeffs)
            g[0] -= t
            ends = [uni.float_root(g, iv) for iv in uni.isolate_roots(g, 0, Fraction(prof.f_x0))]
            assert len(ends) == rec.boundary_endpoint_count == 2 * rec.component_count
            got = sorted((q for pts in polylines for q in (pts[0], pts[-1])), key=lambda q: -q[1])
            for (x, y), want in zip(got, ends):
                assert x == 46.0, (text, rec.t)
                assert abs(y - (374 - 328 * want / prof.f_x0)) <= 0.01, (text, rec.t)


def test_a_line_without_a_positive_root_ends_the_border(p3, region3):
    # 2y - x*y - y^3 has the positive root sqrt(2 - x) only left of x = 2:
    # the border and the levels stop at the first line past it, no error
    region = dataclasses.replace(region3, poly=parse_polynomial("2*y - x*y - y^3"))
    report = certify_tongue(p3).level_report
    svg = render_tongue_svg(region, report, 50.0)
    lines = xml.dom.minidom.parseString(svg).getElementsByTagName("polyline")
    border = [tuple(map(float, q.split(","))) for q in lines[-1].getAttribute("points").split()]
    levels = [pts for polylines in drawn_levels(svg).values() for pts in polylines]
    assert border[0][0] == 46.0 and levels
    # x = 2 on the linear scale from x0 = 1 to 50, 548 px wide
    assert all(x < 46 + 548 / 49 for pts in [border, *levels] for x, _ in pts)


def test_tangency_entering_the_strip_counts_two_ends():
    # u + x*u^2 with u = y(1 - y) is in no region's coordinates: its far
    # edge term x*y^2 has a01*a_ab = 1 > 0, so its face 1 + c has no
    # positive root and p grows with x along V; the strip refuses it
    region = strip_region(parse_polynomial("y*(1 - y)*(1 + x*y*(1 - y))"), Fraction(1))
    with pytest.raises(LevelSetUndecided, match=r"does not have a >= 1 and a01\*a_ab < 0"):
        check_level_sets(region, [])
    # here h = p(1, .) peaks at 5/16 at y = 1/2, where h'' = -4 < 0 and
    # p_x = 1/16 > 0: that level is x = 1 + 32 (y - 1/2)^2 + ..., two
    # strands into V from one segment point, and so two ends
    p = parse_polynomial("y*(1 - y)*(1 + x*y*(1 - y)) - x^2*y^3*(2*y - 1)^2")
    region = strip_region(p, Fraction(1))
    assert ends_above_barrier(region, Fraction(5, 16)) == 2
    assert ends_above_barrier(region, Fraction(1, 4)) == 2


def test_a_root_of_multiplicity_above_two_is_undecided():
    # h = p(1, .) = 1/8 - 2 (y - 1/2)^4: h - 1/8 has a fourth-order root at
    # y = 1/2, whose ends the sign of h'' cannot tell
    p = parse_polynomial("y - 3*y^2 + 4*y^3 - 2*y^4 + (x - 1)*y^2")
    region = strip_region(p, Fraction(1))
    with pytest.raises(LevelSetUndecided, match="multiplicity 4"):
        ends_above_barrier(region, Fraction(1, 8))
    assert ends_above_barrier(region, Fraction(1, 10)) == 2


def test_strip_refuses_terms_the_criterion_rules_out():
    # p(x, 0) = x - 1 is no edge's bottom: a certified p is y times a
    # polynomial that is a01 != 0 at y = 0, so the strip names that fact
    for text in ["x - 1 + y - x^2*y^2", "y + x*y - x^2*y^2"]:
        region = strip_region(parse_polynomial(text), Fraction(1))
        with pytest.raises(LevelSetUndecided, match=r"j <= 1 are not exactly a01\*y"):
            check_level_sets(region, [])


def test_sign_at_root_is_zero_where_q_shares_the_root():
    # q = y^2 - 2 and g = y^3 - 2y share sqrt(2), the one root of g in
    # (0, 2): q changes sign inside every interval around it, so narrowing
    # until q has no root inside would never end; the gcd check answers 0
    q = [Fraction(-2), Fraction(0), Fraction(1)]
    g = [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]
    assert tongue._sign_at_root(q, g, uni.RootInterval(Fraction(0), Fraction(2), 1)) == 0


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
