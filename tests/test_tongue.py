import dataclasses
import itertools
import math
import pathlib
import random
import time
import xml.dom.minidom
from fractions import Fraction

import pytest

from jacmate.certificate import tongue_to_dict
from jacmate.poly import (
    IDENTITY,
    NEGATE_Y,
    SWAP,
    BivariatePolynomial,
    Transform,
    apply_transform,
    parse_polynomial,
)
from jacmate.polygon import (
    CriterionCertificate,
    corollary_certificate,
    newton_polygon,
    right_outer_edges,
)
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


def region_of(p):
    return build_tongue(p, corollary_certificate(p))


def cauchy_bound(f):
    # every real root of the nonconstant f lies in (-B, B)
    f = uni.normalize(f)
    return 1 + Fraction(max(abs(a) for a in f[:-1]), abs(f[-1]))


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
    assert prof.f_x0_root.lo <= 1 <= prof.f_x0_root.hi
    assert list(prof.h_coeffs) == [Fraction(0), Fraction(1), Fraction(-1)]
    assert prof.a == pytest.approx((1 - SQ2 / 2) / 2, abs=1e-9)
    assert prof.b == pytest.approx((1 + SQ2 / 2) / 2, abs=1e-9)
    assert prof.a_root.lo <= Fraction(prof.a).limit_denominator(10**12) <= prof.b_root.hi


def test_profile_at_shifted_start(region3):
    # same curve entered at x0 = 2: h(y) = y - 4y^2 peaks at 1/16
    h = region3.poly.restricted_to_x(2)
    prof = restriction_profile(h, Fraction(2), uni.isolate_roots(h, Fraction(0))[0])
    assert prof.f_x0 == 0.25
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
    assert uni.count_roots(hp, Fraction(0), prof.a_root.lo) == 0
    assert uni.count_roots(hp, prof.b_root.hi, Fraction(1)) == 0


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
    # -x^2*y^2 + y has no term off its witness edge (0, 1)-(2, 2): the edge
    # parts alone decide (H1) and (H2), at x0 = 1, and bracket f(1) = 1
    x0, lo, hi = check_no_critical_points(region3.poly, (2, 2))
    assert x0 == 1 and 0 < lo < 1 < hi


def edge_x0(p, crit_x):
    """x0 from the witness edge of p, already in region coordinates.

    The critical abscissa crit_x lies before it, and (lo, hi) brackets
    f(x0), the smallest positive root of p(x0, .), exactly.
    """
    x0, lo, hi = check_no_critical_points(p, corollary_certificate(p).endpoints[1])
    assert x0 > crit_x
    h = p.restricted_to_x(x0)
    top = uni.isolate_roots(h, Fraction(0))[0]
    assert lo < top.lo and top.hi < hi and uni.ueval(h, lo) > 0
    assert certify_tongue(p).status == VERIFIED
    return x0


def test_critical_point_sweep_finds_planted_line():
    # dp/dy = 1 - 3y^2 vanishes along y = 1/sqrt(3) and dp/dx is identically
    # 0: a curve of critical points.  The witness edge (0, 1)-(0, 3) has
    # a = 0, so nothing decays, and the decision names it
    with pytest.raises(LevelSetUndecided, match="has a = 0: p is free of x"):
        check_no_critical_points(parse_polynomial("y - y^3"), (0, 3))


def test_critical_point_sweep_finds_isolated_point():
    # p = y - y^2 - (x - 2)^2 * y^2 has dp/dx = -2(x-2)y^2 and
    # dp/dy = 1 - 2y - 2(x-2)^2 y: one critical point, (2, 1/2), below
    # f(2) = 1 and so in the strip over x = 2; x0 lies past it
    assert edge_x0(parse_polynomial("y - y^2 - (x - 2)^2*y^2"), 2) == 256


DOUBLE_ROOT_SLICE = "4*y - 10*y^2 + 32/3*y^3 - 4*y^4 - ({})^2*y^2"


def test_critical_point_on_double_root_slice():
    # p(2, .) = h with h' = 4(1 - y)(2y - 1)^2, and p_x = 0 on x = 2:
    # critical points at (2, 1/2), a double root of p_y(2, .), and (2, 1),
    # both in the strip over x = 2, since h has no root in (0, 1]
    p = parse_polynomial(DOUBLE_ROOT_SLICE.format("x - 2"))
    py = p.partial_derivative("y").restricted_to_x(2)
    assert sorted(m for _, m in uni.squarefree_decomposition(py)) == [1, 2]
    h = p.restricted_to_x(2)
    assert uni.count_roots(h, Fraction(0), Fraction(1)) == 0 and uni.ueval(h, 1) == Fraction(2, 3)
    assert edge_x0(p, 2) == 256


def test_critical_point_on_double_root_at_irrational_x():
    # the same points moved to x = sqrt(5) = 2.2360...
    assert edge_x0(parse_polynomial(DOUBLE_ROOT_SLICE.format("x^2 - 5")), 5**0.5) == 32


def test_critical_point_at_irrational_x():
    # p_x and p_y vanish together at (1 + sqrt(2), 1/2), x = 2.4142...,
    # below f = 1 there
    assert edge_x0(parse_polynomial("y - y^2 - (x^2 - 2*x - 1)^2*y^2"), 1 + 2**0.5) == 256


def test_shared_factor_partials_verify(monkeypatch):
    # p = u + u^2 with u = y + x*y^2: both partials carry 1 + 2u, so
    # Res_y(p_x, p_y) is identically zero, and the critical set is the curve
    # u = -1/2.  p > 0 on V keeps u away from it: the witness edge decides
    # (H1) with no elimination, and the region verifies
    monkeypatch.setattr(uni, "resultant_y", None)
    cert = certify_tongue(parse_polynomial("y + x*y^2 + (y + x*y^2)^2"))
    assert cert.status == VERIFIED, cert.reasons
    assert cert.region.x0 == 2**10


def test_roots_past_counts_the_open_ray():
    # roots 1, sqrt(5), 7/3 and 4: bisection counts three past 1, Descartes'
    # rule settles one past 3 and none past 4; the closed ray holds 4
    def roots_past(c, lo):
        return uni.count_roots(c, lo, cauchy_bound(c))

    res = parse_polynomial("(y - 1)*(3*y - 7)*(y^2 - 5)*(y - 4)").restricted_to_x(0)
    assert roots_past(res, Fraction(1)) == 3
    assert roots_past(res, Fraction(3)) == 1
    assert roots_past(res, Fraction(4)) == 0
    assert uni.ueval(res, Fraction(4)) == 0
    # (y - 3)^2 + 1 has two sign changes past 1 and past 2 but no real root:
    # bisection decides
    res = parse_polynomial("y^2 - 6*y + 10").restricted_to_x(0)
    assert roots_past(res, Fraction(1)) == 0


def test_critical_points_just_below_f_x0_place_the_barrier_below_their_dip():
    # h = y(1 - y)((y - c)^2 + eps), c = 1 - 10^-10, eps = 10^-21, has a
    # local min and max at 0.99999999991 and 0.99999999996, within 10^-9 of
    # f(x0) = 1, and a peak near 1/4.  The critical points are read on
    # (0, top.hi), so the barrier goes below the dip's value, near 1.4e-31,
    # and every level up to it cuts h twice
    h = parse_polynomial(
        "y*(1 - y)*((y - 9999999999/10000000000)^2 + 1/1000000000000000000000)"
    ).restricted_to_x(1)
    top = uni.isolate_roots(h, Fraction(0))[0]
    low, high = uni.isolate_roots(uni.derivative(h), Fraction(0), top.hi)[1:]
    assert 1 - Fraction(1, 10**9) < low.lo and high.hi < 1
    dip = uni.ueval(h, low.midpoint)
    assert 0 < dip < Fraction(1, 10**30)
    prof = restriction_profile(h, Fraction(1), top)
    assert dip / 4 < prof.t0 < dip and prof.t0 == pytest.approx(4.87e-32, rel=1e-2)
    rng = random.Random(11)
    for t in [prof.t0] + [prof.t0 * Fraction(rng.randint(1, 999), 1000) for _ in range(8)]:
        assert uni.count_roots(tongue._shifted_by(h, t), Fraction(0), top.hi) == 2, t


def test_a_critical_point_past_f_x0_refuses_the_barrier():
    # h = y(1 - y)(3 - y) has f(x0) = 1 and a local min in (1, 3).  Where
    # top = (1/2, 5/2) isolates f(x0), that min lies below top.hi: its
    # critical value is negative, and so is the barrier, which step 4
    # refuses.  With top = (1/2, 5/4) the barrier is placed
    h = [Fraction(0), Fraction(3), Fraction(-4), Fraction(1)]
    top = uni.RealRoot((0, 3, -4, 1), Fraction(1, 2), Fraction(5, 2), 1)
    with pytest.raises(NotSingleSignedOnInterval, match="could not place a rational barrier"):
        restriction_profile(h, Fraction(1), top)
    top = uni.RealRoot((0, 3, -4, 1), Fraction(1, 2), Fraction(5, 4), 1)
    assert restriction_profile(h, Fraction(1), top).t0 > 0


def test_barrier_is_placed_below_a_peak_under_1e_minus_9():
    # x0 = 2^24, h = y - ((2^24 - 2^17)^2 + 2)*y^2 peaks at ~9e-16: a
    # denominator bound of 10^9 alone rounds the barrier to 0
    cert = certify_tongue(parse_polynomial("y - ((x - 131072)^2 + 2)*y^2"))
    assert cert.status == VERIFIED
    prof = cert.region.profile
    assert cert.region.x0 == 2**24
    assert 0 < prof.t0 < Fraction(1, 10**9)
    peak = Fraction(1, 4 * ((2**24 - 2**17) ** 2 + 2))
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
    assert cert.region.transform == Transform(swap_xy=True, negate_y=True)
    assert cert.region.flipped
    assert cert.region.profile.t0 == Fraction(1, 8)


def test_strip_top_far_below_1e_minus_12_is_isolated_relative_to_it():
    # f(1) = 2^-200: the edge brackets it from below, so its isolating
    # interval, 10^-12 of that bound wide, starts above 0, and so do the
    # barrier's crossings; h = y - 2^200*y^2 peaks at 2^-202
    cert = certify_tongue(parse_polynomial(f"y + {2**200}*x^2*y^2"))
    assert cert.status == VERIFIED and cert.region.x0 == 1
    prof = cert.region.profile
    assert 0 < prof.f_x0_root.lo <= Fraction(1, 2**200) <= prof.f_x0_root.hi
    assert prof.f_x0 == 2.0**-200 and abs(prof.t0 - Fraction(1, 2**203)) <= Fraction(1, 2**205)
    assert 0 < prof.a_root.lo and prof.b_root.hi < Fraction(1, 2**200)


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
    # the edge's small coefficient -10^-10 puts x0 at 2^23, past the
    # critical point (100000, 1/2); the drawing's right edge is past it,
    # with or without the level report: the lowest level still meets the
    # line x = 2^25 and misses 2^26
    p = parse_polynomial("y - y^2 - 1/10000000000*(x - 100000)^2*y^2")
    cert = certify_tongue(p)
    region = cert.region
    assert region.x0 == 2**23
    assert render._horizon(render._slices(region), region.x0, []) == 2**25
    drawn = [(level_at(cert, t), t) for t in default_schedule(region.profile.t0) if t > 0]
    assert render._horizon(render._slices(region), region.x0, drawn) == 2**26
    xml.dom.minidom.parseString(render_tongue_svg(region, cert.level_report))


def test_build_tongue_doubles_past_planted_critical_point():
    # gradient vanishes at (2, 1/4), below f(2) = 1/2: the witness edge
    # (0, 1)-(2, 2) bounds the terms 4x*y^2 and -6*y^2 only from x0 = 2^8,
    # past it, and the region verifies there
    p = parse_polynomial("y - (x^2 - 4*x + 6)*y^2")
    region = region_of(p)
    assert region.x0 == 256
    # the root 1/64518 of y - (256^2 - 4*256 + 6)*y^2, to the float
    assert region.profile.f_x0 == 1 / 64518
    cert = certify_tongue(p)
    assert cert.status == VERIFIED
    assert cert.region.x0 == 256


@pytest.mark.parametrize(
    "text, x0",
    [("2*x^3*y - x^2*y - 2*x", 8), ("y - x^2*y^2 - x^2*y^3", 2)],
)
def test_exact_x0_verifies_where_the_sampled_start_did_not(monkeypatch, text, x0):
    # x0 is the least power of two at which the witness edge outweighs the
    # other terms, past the sampled start x0, where that bound does not hold
    # yet; the region verifies there, and the decision runs once
    decide = tongue.check_no_critical_points
    calls = []

    def counted(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(tongue, "check_no_critical_points", counted)
    cert = certify_tongue(parse_polynomial(text))
    assert cert.status == VERIFIED, cert.reasons
    assert cert.region.x0 > x0 and len(calls) == 1


@pytest.mark.parametrize("text", ["y + x^2*y^2", "y - (x^2 - 4*x + 6)*y^2"])
def test_tongue_certificate_takes_each_resultant_once(monkeypatch, text):
    # the whole pipeline, flip of y + x^2*y^2 included, takes neither
    # R = Res_y(p_x, p_y) nor D = Res_y(p, p_y) more than once: the witness
    # edge decides x0 and the level argument with no elimination at all
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
        assert sum(call in ((f, g), (-f, -g)) for call in calls) == 0
    assert not calls


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
    # orientation or x0 decision: the level check reads h = p(x0, .) and
    # f(x0) from it
    h = p.restricted_to_x(x0)
    top = uni.isolate_roots(h, Fraction(0), cauchy_bound(h))[0]
    return tongue.TongueRegion(IDENTITY, False, p, x0, restriction_profile(h, x0, top))


def ends_above_barrier(region, t):
    # the count that check_level_sets takes at a level t > t0
    h = list(region.profile.h_coeffs)
    h2 = uni.derivative(uni.derivative(h))
    px = region.poly.partial_derivative("x").restricted_to_x(region.x0)
    return tongue._ends_above_barrier(h, h2, px, region.profile.f_x0_root.hi, t)


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
    # h has one critical point in (0, f(x0)), its peak, and t0 is a rational
    # a hair from half of it: just below, h - 2*t0 has two simple roots a
    # hair apart, a small arc inside the pocket (y + x*y^3, at x0 = 1); just
    # above, none (the other two, at x0 = 8 and 4)
    cert = fixture_certs[text]
    prof = cert.region.profile
    h, t = list(prof.h_coeffs), 2 * prof.t0
    (peak,) = uni.isolate_roots(uni.derivative(h), Fraction(0), prof.f_x0_root.hi)
    assert abs(uni.ueval(h, peak.midpoint) - t) < t / 10**6
    arc = peak.sign(tongue._shifted_by(h, t)) > 0
    assert arc == (text == "y + x*y^3")
    rec = level_at(cert, t)
    assert rec.classification == (CONTAINED_IN_B if arc else EMPTY)
    assert rec.component_count == arc
    assert rec.boundary_endpoint_count == 2 * arc
    assert rec.ok


@pytest.mark.parametrize("text", FIXTURES)
def test_level_sets_take_no_elimination_in_x(monkeypatch, text):
    # the certificate eliminates nothing: the witness edge decides (H1) and
    # (H2) with no R = Res_y(p_x, p_y) or D = Res_y(p, p_y), the criterion
    # rules out ends at infinity, so no E(x, T) = Res_y(p - T, p_y) counts
    # them, and the pinned t0 arc bounds the pocket, so no Res_x locates its
    # extent
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
    assert not calls


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
    # from the slow tail of a seeded class census; the witness edge sets
    # x0 = 2
    p = parse_polynomial("x^7*y^4 - 2*x^6*y^8 + 7*x^6*y^7 - 4*x^5*y^2 + 3*x^3*y^3 - y^9 - y")
    cert = certify_tongue(p)
    assert cert.status == VERIFIED and cert.region.x0 == 2


def test_degree_24_member_is_verified():
    # a degree-24 class member: the witness edge (0, 1)-(9, 15) outweighs
    # the other terms from x0 = 2^23
    p = parse_polynomial("y + x^9*y^15 + x^5*y^11 - 3*x^8*y^14 + x^3*y^13 + 2*x*y^7")
    cert = certify_tongue(p)
    assert cert.status == VERIFIED and cert.region.x0 == 2**23


def test_x0_past_the_float_range_is_inconclusive():
    # the term 2^250*y^2 sits one step below the edge (0, 1)-(1, 8), and
    # decays like x^(-1/7): it takes x0 = 2^1771, past the report's floats
    cert = certify_tongue(parse_polynomial("y - x*y^8 + 2^250*y^2"))
    assert cert.status == INCONCLUSIVE and cert.region is None
    assert cert.reasons == (
        "x0 = 2^1771: x0 or f(x0) is past 2^(+/-512), outside the range of the report's floats",
    )


def test_a_barrier_crossing_past_the_float_range_is_inconclusive(monkeypatch):
    # h = y(1 - y)((2y - 1)^32 + 2^-1200) dips to about 2^-1202 near
    # y = 1/2, so the barrier goes below that, and its crossing a, near
    # t0 / h'(0), has 0.0 as its nearest double: the profile refuses to
    # round it, and the certificate names the float range
    q = [Fraction(math.comb(32, i) * 2**i * (-1) ** (32 - i)) for i in range(33)]
    q[0] += Fraction(1, 2**1200)
    h = [Fraction(0)] + [u - v for u, v in zip(q + [0], [0] + q)]
    top = uni.isolate_roots(h, Fraction(0))[0]
    with pytest.raises(OverflowError, match="past the float range"):
        restriction_profile(h, Fraction(1), top)
    monkeypatch.setattr(tongue, "build_tongue", lambda *args: restriction_profile(h, 1, top))
    p = parse_polynomial("y + x^2*y^2")
    cert = tongue_certificate(p, corollary_certificate(p))
    assert cert.status == INCONCLUSIVE and cert.region is None
    assert cert.reasons == ("a nonzero root rounds to 0.0, past the float range",)


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
    assert swapped == (Transform(swap_xy=True, negate_y=True), True)
    circle = parse_polynomial("x^2 + y^2")
    with pytest.raises(ValueError):
        tongue.region_orientation(circle, corollary_certificate(circle))


def below_top_is_negative(q, end):
    # the sign test on h = q(x0, .) below f(x0) at build_tongue's x0, or
    # None where the witness edge has a = 0 and build_tongue stops before
    # any x0; the edge bound reads the flipped q, where a01 > 0
    try:
        x0, lo, hi = check_no_critical_points(q if q.coefficient((0, 1)) > 0 else -q, end)
    except LevelSetUndecided:
        return None
    h = q.restricted_to_x(x0)
    top = uni.isolate_roots(h, lo, hi)[0]
    return uni.ueval(h, tongue._point_below(top.lo)) < 0


def class_draws(seed, attempts=2000, edge=None, extra=(1, 5), i_max=4, j_max=5, coeff=3):
    """Seeded draws that meet the criterion, with it.

    Each draw has ``extra`` terms, a range, with i <= i_max, j <= j_max and
    coefficients +-1...coeff.  With ``edge = (a_max, b_max)`` it starts from
    a witness edge (0, 1)-(a, b), 1 <= a <= a_max, 2 <= b <= b_max and
    gcd(a, b - 1) = 1; without it, from a01*y in 85% of draws.
    """
    rng = random.Random(seed)
    coeffs = [c for c in range(-coeff, coeff + 1) if c]
    a_max, b_max = edge or (0, 1)
    ends = [
        (a, b) for a in range(1, a_max + 1) for b in range(2, b_max + 1) if math.gcd(a, b - 1) == 1
    ]
    for _ in range(attempts):
        terms = {}
        if ends:
            terms[(0, 1)], terms[rng.choice(ends)] = rng.choice(coeffs), rng.choice(coeffs)
        elif rng.random() < 0.85:
            terms[(0, 1)] = rng.choice(coeffs)
        for _ in range(rng.randint(*extra)):
            terms[(rng.randint(0, i_max), rng.randint(0, j_max))] = rng.choice(coeffs)
        p = BivariatePolynomial(terms)
        cert = corollary_certificate(p, allow_swap=True)
        if cert.satisfied:
            yield p, cert


def test_certified_draws_have_only_a01_y_below_j_2():
    # on seeded class members, region_orientation's sign change gives the
    # witness face a confirmed positive root.  In its coordinates no term
    # has j = 0, the only j = 1 term is (0, 1), the premise of (H3), and the
    # flip is the sign of p below f(x0)
    draws = list(itertools.islice(class_draws(2024), 200))
    assert len(draws) == 200
    for p, cert in draws:
        transform, flipped = tongue.region_orientation(p, cert)
        q = apply_transform(p, transform)
        assert any(
            a.existence == branches.CONFIRMED and a.c_star > 0
            for a in branches.branch_candidates(q, cert.witness_edge)
        ), str(p)
        assert {ij for ij in q.support() if ij[1] <= 1} == {(0, 1)}, str(p)
        assert below_top_is_negative(q, cert.endpoints[1]) in (flipped, None), str(p)


def test_orientation_table_is_exhaustive():
    # every witness edge (0, 1)-(a, b) with a <= 12 and 2 <= b <= 12, with
    # both signs of each coefficient, in both axis orders: after the
    # orientation and its flip a01 > 0 > a_ab, and no transform negates
    # both axes.  The identity, negate y and negate x each occur, with and
    # without the criterion's swap
    seen = set()
    for a in range(13):
        for b in range(2, 13):
            if math.gcd(a, b - 1) != 1:
                continue
            for s01, s_ab in itertools.product((2, -2), (3, -3)):
                edge = BivariatePolynomial({(0, 1): s01, (a, b): s_ab})
                for p in (edge, apply_transform(edge, SWAP)):
                    cert = corollary_certificate(p)
                    assert cert.endpoints == ((0, 1), (a, b)), str(p)
                    transform, flipped = tongue.region_orientation(p, cert)
                    q = apply_transform(p, transform)
                    if flipped:
                        q = -q
                    assert q.coefficient((0, 1)) > 0 > q.coefficient((a, b)), str(p)
                    assert not (transform.negate_x and transform.negate_y), str(p)
                    assert transform.swap_xy == cert.transform_used.swap_xy
                    seen.add(transform)
    signs = ((False, False), (False, True), (True, False))
    assert seen == {Transform(s, nx, ny) for s in (False, True) for nx, ny in signs}
    # an edge with a even and b odd has gcd(a, b - 1) >= 2, so the criterion
    # never hands one over; handed one, the orientation refuses it
    p = parse_polynomial("y + x^2*y^3")
    (edge,) = [e for e in right_outer_edges(newton_polygon(p)) if (0, 1) in e.endpoints()]
    with pytest.raises(AssertionError, match="a even and b odd"):
        tongue.region_orientation(p, CriterionCertificate(IDENTITY, edge))


def test_class_census_verifies_without_elimination(monkeypatch):
    # 60 seeded class members: an edge with a <= 7 and b <= 8, 2-8 more
    # terms with i <= 7 and j <= 9, coefficients up to 9, of degree 7 to 16.
    # Every one verifies, and neither they nor the 40 members of
    # member_certs eliminate
    calls = []
    monkeypatch.setattr(uni, "resultant_y", lambda *args: calls.append(args))
    census = class_draws(2, edge=(7, 8), extra=(2, 8), i_max=7, j_max=9, coeff=9)
    started = time.perf_counter()
    certs = [tongue_certificate(p, cert) for p, cert in itertools.islice(census, 60)]
    assert time.perf_counter() - started < 10.0
    members = [tongue_certificate(p, cert) for p, cert in itertools.islice(class_draws(7), 40)]
    assert len(certs) == 60 and len(members) == 40 and not calls
    for cert in [*certs, *members]:
        assert cert.status == VERIFIED, cert.reasons
    degrees = sorted(max(i + j for i, j in c.region.poly.support()) for c in certs)
    assert degrees[0] == 7 and degrees[30] == 13 and degrees[-1] == 16


def rational_interpolate(values):
    """The polynomial over Q of degree < len(values) taking values[k] at k.

    With D the lcm of the values' denominators, D * P takes integers at
    0, ..., L = len(values) - 1, so its Newton coefficients times L! are
    integers: L! * D * P lies in Z[x], which ``uni.interpolate`` recovers.
    """
    scale = math.lcm(*(Fraction(v).denominator for v in values)) * math.factorial(len(values) - 1)
    return [Fraction(a, scale) for a in uni.interpolate([int(v * scale) for v in values])]


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
        rational_interpolate([e[i] if i < len(e) else 0 for e in levels])
        for i in range(max(map(len, levels)))
    ]

    def count(t):
        e = uni.normalize([uni.ueval(c, t) for c in e_in_t])
        assert e, f"Res_y(p - t, p_y) vanishes identically for t = {t}"
        far = max(Fraction(2 ** math.ceil(cauchy_bound(e)).bit_length()), 2 * region.x0)
        hq = p.restricted_to_x(far)
        top = uni.isolate_roots(hq, Fraction(0), cauchy_bound(hq))[0]
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
        h, top_hi = list(prof.h_coeffs), prof.f_x0_root.hi
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
        h, top_hi = list(prof.h_coeffs), prof.f_x0_root.hi
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
                for root in uni.isolate_roots(factor, Fraction(0), top_hi):
                    double_roots += 1
                    want = root.sign(rest)
                    assert want != 0 and root.sign(h2) == want
                    assert root.sign(px) != 0, (str(region.poly), t)
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
            ends = [float(root) for root in uni.isolate_roots(g, 0, Fraction(prof.f_x0))]
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
    # polynomial that is a01 != 0 at y = 0, and every term other than the
    # edge's lies below it, so the strip names the first term that does not
    for text in ["x - 1 + y - x^2*y^2", "y + x*y - x^2*y^2"]:
        region = strip_region(parse_polynomial(text), Fraction(1))
        with pytest.raises(LevelSetUndecided, match=r"x\^\d\*y\^[01] of p is not below the witness"):
            check_level_sets(region, [])
