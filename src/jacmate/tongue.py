"""Tongue regions under the lowest positive branch, and their level checks.

After moving the certified branch into the first quadrant, let f(x) be the
smallest positive root of p(x, .).  The strip

    V = { (x, y) : x > x0, 0 < y < f(x) },

together with the segment S = {x0} x (0, f(x0)), forms a region A whose
border contains the half-line y = 0, x >= x0.  The checks here show that A
behaves like a tongue: p has no critical point in it, every positive level
at or below a barrier t0 cuts it in a single arc pinned to S, and every
level above t0 stays inside the bounded pocket B that the t0 arc cuts off.

Exact: the transform and the flip (the signs of the witness edge's two
coefficients, no trace), x0 (the least power of two at which the
hypotheses below hold), f(x0) (an isolated root of p(x0, .)), the
barrier and the restriction h(y) = p(x0, y), which decide every level in
(0, t0], and the end count of every level above t0.
Numeric: f(x0), a and b, reported as nearest doubles; no float is read.
``render`` draws the region from exact vertical slices too, the roots of
p(x_k, .) on rational lines, plotted as floats.

The level sets follow from regular-level Morse theory (Milnor, *Morse
Theory*).  The hypotheses come from the witness edge alone: its weights
bound p and its partials along the branch (Walker, *Algebraic Curves*,
ch. IV), so the certificate eliminates no variable.

1. Hypotheses past x0, decided exactly from the witness edge.  In the
   region's coordinates the edge runs from (0, 1) to (a, b), b >= 2 and
   gcd(a, b - 1) = 1, with a01 > 0 > a_ab.  Put e = b - 1,
   theta = -a / e, w = x^(-1/e) and y = u x^theta.  A term c x^i y^j of p
   is then c u^j w^(n + a), n = a (j - 1) - i e, so
       g = p / y          = F(u)      + sum c u^(j - 1) w^n,
       p_y                = (uF)'(u)  + sum c j u^(j - 1) w^n,
       x^(1 - theta) p_x  = a a_ab u^b + sum c i u^j w^n,
   with F(u) = a01 + a_ab u^e and the sums over the terms off the edge.
   Every term lies on or below the edge, which is primitive, so n >= 1 off
   it; this premise is checked exactly, with a >= 1 and the signs.  For
   x >= 2^k, w^n <= 2^-floor(k n / e), so on 0 <= u <= C the three sums
   are at most
       G(k) = sum |c| C^(j - 1) 2^-floor(k n / e),
       Y(k) = sum |c| j C^(j - 1) 2^-floor(k n / e),
       X(k) = sum |c| i C^j 2^-floor(k n / e).
   F and (uF)' fall on u >= 0 from a01, through 0 at c* and at
   c* b^(-1/e) < c*.  With q = a01 / |a_ab|, the rationals s < m < C are
   dyadic e-th roots just below q / (2b), q (b + 1) / (2b) and 2q, so
   s < c* b^(-1/e) < m < c* < C, and x0 = 2^k is the least with
       G(k) < min(F(m), -F(C)),   Y(k) < min((uF)'(s), -(uF)'(m)),
       X(k) < a |a_ab| s^b.
   Then for every x >= x0: on 0 <= u <= s, p_y >= (uF)'(s) - Y > 0; on
   s <= u <= m, g >= F(m) - G > 0 and x^(1 - theta) p_x <=
   -a |a_ab| s^b + X < 0; on m <= u <= C, p_y <= (uF)'(m) + Y < 0; and
   g <= F(C) + G < 0 at u = C.
   (H2) So p(x, .), 0 at y = 0, rises on (0, s x^theta], stays positive up
   to m x^theta and falls strictly to a negative value at C x^theta: it
   has exactly one root in (0, C x^theta), simple and above m x^theta.
   That root is f(x), and by the implicit function theorem, with its
   uniqueness, f is continuous on [x0, oo).
   (H1) The closure of V lies in 0 <= u <= C over [x0, oo) by (H2), and at
   each of its points p_y or p_x is nonzero: p has no critical point there.
   Since n >= 1, each sum at k is at most its value at 0 times
   2^-floor(k / e), so k <= e t, t the least integer with 2^t past each
   sum at 0 over its margin.  An edge with a = 0 leaves p free of x and
   theta = 0: nothing decays, and that reports Inconclusive.
   (H3) p(x, 0) = 0, and no root of p(x, .) reaches y = 0 past x0: f is
        continuous on [x0, oo), and V is a topological half-strip, simply
        connected.  This follows from the criterion.  A term (i, j) with
        j <= 1 other than (0, 1) has n = a (j - 1) - i e < 0, so
        p = y g with g(x, 0) = a01 != 0: y = 0 is a simple root of p(x, .)
        at every x, and f(x) > m x^theta stays away from it by (H2).
   p has no zero in V, so its sign there is its sign at one point of S.
   The criterion also proves that the region exists:
   - some axis sign change gives the face a01 + a_ab c^(b - 1) a simple
     positive root c, a branch y ~ c x^theta, exactly when it makes
     a01 a_ab < 0: negating y multiplies -a01 / a_ab by (-1)^(b + 1) and
     negating x by (-1)^a.  So the identity, negating y (b even) or
     negating x (b odd, hence a odd, since gcd(a, b - 1) = 1) serves, and
     negating both is never needed: it serves only when a + b is even,
     where negating y (both even) or x (both odd) already does;
   - by (H2) that branch is f, a finite positive root of p(x, .) at every
     x >= x0: p(x0, .) has a smallest positive root f(x0), in
     (m x0^theta, C x0^theta);
   - h = p(x0, .) = a01 y + O(y^2) has no root in (0, f(x0)), so once p
     is flipped to make a01 > 0, h > 0 on all of (0, f(x0)).
2. No closed loops.  A level loop in V bounds a disc in V, on which p has
   an interior extremum, a critical point, against (H1).
3. Ends.  For t > 0 the level L_t = {p = t} in V is regular with no loop,
   so each component is an arc whose two ends tend to a point of the
   border or to infinity.  p = 0 on the top, on the bottom and at both
   corners, so:
   - segment ends: (x0, y) with h(y) = t, 0 < y < f(x0).  A simple root is
     one end (p_y != 0: the level crosses S as a graph over x).  At a
     double root y_m, h - t has the sign of h''(y_m) != 0 beside y_m, and
     p_x(x0, y_m) != 0 by (H1), since p_y(x0, y_m) = h'(y_m) = 0 and
     (x0, y_m) lies in the closure of V.  If the two signs agree,
     p - t = (h - t) + (p - p(x0, .))
     keeps that sign for x > x0 near the point: no end.  If they differ,
     {p = t} near (x0, y_m) is x = x0 + phi(y) with phi(y_m) = phi'(y_m) = 0
     and phi''(y_m) = -h''(y_m) / p_x(x0, y_m) > 0: two strands enter V
     from one point of S, two ends.  They cannot close up into one arc:
     with the point, it would bound a disc in the closure of V with
     p = t on its border, and so an extremum of p inside, a critical point
     in V, against (H1).  A root of multiplicity 3 or more is undecided.
   - no end at infinity, by the criterion: p = O(x^theta) on V, and
     theta = -a / (b - 1) < 0 since a >= 1.  By (H2), 0 < y < C x^theta
     on V, and every term of p has i + theta j <= theta, with equality on
     the edge, so |a_ij| x^i y^j <= |a_ij| C^j x^theta for x >= 1:
     p = O(x^theta) tends to 0 on V.  A level t > 0 stays in a bounded
     part of V.
   The level has ends / 2 components, and their count is even: h - t is
   -t < 0 at y = 0 and at top.hi, the upper end of the isolating interval
   of f(x0), since f(x0) is a simple root of h by (H2) and h <= 0 from it
   to top.hi.  Simple roots flip the sign of h - t, double roots keep it,
   and a higher one is undecided.
4. The barrier decides every level in (0, t0].  ``restriction_profile``
   isolates the two simple roots a < b of h - t0 in (a_lo, a_hi) and
   (b_lo, b_hi), and checks exactly that h' has no root on (0, a_hi),
   that h > t0 on [a_hi, b_lo] (at its midpoint, and h - t0 has no other
   root), and that h' has no root on (b_lo, top.hi), where
   (top.lo, top.hi) isolates f(x0).  So h rises strictly from h(0) = 0 to
   t0 on (0, a], exceeds t0 on (a, b), and falls strictly from t0 at b
   through h(f(x0)) = 0 on to top.hi.  For each 0 < t <= t0, h = t then
   has exactly two roots in (0, top.hi), one in (0, a] and one in
   [b, f(x0)), both simple since h' != 0 there: by step 3, L_t is one arc
   with both ends on S.  No such level is counted.
5. The pocket.  L_t0 is one arc with its ends at a and b.  It splits V
   into B, next to the chord (a, b) where h > t0, and the rest U, where
   h < t0 near S; p - t0 has no zero on either, so p > t0 exactly on B and
   every level above t0 lies in B.  B is bounded: the arc has both ends on
   S and none at infinity, so it is compact, and B is the region it
   encloses with the chord.

Step 4 holds for every t in (0, t0]; a level above t0 is counted exactly,
at the scheduled t.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from . import univariate as uni
from .poly import BivariatePolynomial, Transform, apply_transform
from .polygon import CriterionCertificate

__all__ = [
    "NotSingleSignedOnInterval",
    "LevelSetUndecided",
    "RestrictionProfile",
    "TongueRegion",
    "LevelRecord",
    "LevelSetReport",
    "TongueCertificate",
    "EMPTY",
    "SEGMENT_ARC",
    "CONTAINED_IN_B",
    "VERIFIED",
    "INCONCLUSIVE",
    "FAILED",
    "restriction_profile",
    "region_orientation",
    "build_tongue",
    "check_no_critical_points",
    "check_level_sets",
    "default_schedule",
    "tongue_certificate",
]

EMPTY = "Empty"
SEGMENT_ARC = "SegmentWithBoundaryEndpoints"
CONTAINED_IN_B = "ContainedInB"

VERIFIED = "Verified"
INCONCLUSIVE = "Inconclusive"
FAILED = "Failed"


class NotSingleSignedOnInterval(ValueError):
    """The region cannot be assembled at x0; the reason names x0."""


class LevelSetUndecided(RuntimeError):
    """A fact the exact level-set argument needs failed or stayed undecided."""


@dataclass(frozen=True)
class RestrictionProfile:
    """Exact shape of h(y) = p(x0, y), at the region's x0, on its segment side.

    ``f_x0_root`` is f(x0), the smallest positive root of h.  t0 is a
    rational barrier strictly below every interior critical value of h,
    crossed at a < b, the roots ``a_root`` and ``b_root`` of h - t0.  The
    floats f_x0, a and b are the nearest doubles to these roots.
    """

    f_x0_root: uni.RealRoot
    t0: Fraction
    h_coeffs: tuple[Fraction, ...]
    a_root: uni.RealRoot
    b_root: uni.RealRoot

    @cached_property
    def f_x0(self) -> float:
        return float(self.f_x0_root)

    @cached_property
    def a(self) -> float:
        return float(self.a_root)

    @cached_property
    def b(self) -> float:
        return float(self.b_root)


@dataclass(frozen=True)
class TongueRegion:
    transform: Transform
    flipped: bool
    poly: BivariatePolynomial  # normalized: positive on the strip
    x0: Fraction
    profile: RestrictionProfile


@dataclass(frozen=True)
class LevelRecord:
    """Exact shape of one level in V: its ends, and components = ends / 2.

    ``boundary_endpoint_count`` counts the ends, all on the segment side.
    The five class constants hold for every level, and are kept for the
    certificate schema.  ``closed_loop_detected`` is False by (H1);
    ``bottom_endpoint_count`` is 0 by the criterion, (H3), and
    ``ends_at_infinity`` is 0 by the criterion too, step 3's
    p = O(x^theta).  ``ok`` is True and ``anomalies`` empty: a level t <= 0
    is empty, one in (0, t0] is one arc by the barrier check (step 4), and
    one above t0 lies in the pocket whatever its count (step 5).
    """

    t: float
    classification: str
    boundary_endpoint_count: int

    closed_loop_detected = False
    ok = True
    anomalies = ()
    bottom_endpoint_count = 0
    ends_at_infinity = 0

    @property
    def component_count(self) -> int:
        return self.boundary_endpoint_count // 2


@dataclass(frozen=True)
class LevelSetReport:
    records: tuple[LevelRecord, ...]
    exact_facts: tuple[str, ...] = ()

    # no record can fail (``LevelRecord``): kept for the certificate schema
    passed = True
    failures = ()


@dataclass(frozen=True)
class TongueCertificate:
    status: str  # Verified | Inconclusive | Failed
    reasons: tuple[str, ...]
    region: TongueRegion | None
    level_report: LevelSetReport | None


# ---------------------------------------------------------------------------
# Restriction profile
# ---------------------------------------------------------------------------


def restriction_profile(
    h: list[Fraction], x0: Fraction, top: uni.RealRoot
) -> RestrictionProfile:
    """Analyze h(y) = p(x0, y) on (0, f(x0)) and place the barrier t0.

    ``top`` is f(x0), the smallest positive root of h, with
    top.lo > 0, and h > 0 below it: ``build_tongue`` flipped p so.  Roots
    of h' and of h - t0 are isolated on (0, top.hi), to 10^-12 of top.lo,
    relative to f(x0) however small it is.  The barrier is half the
    smallest critical value vmin of h there, rounded to a rational of
    denominator at most max(10^9, 4 / vmin), within vmin / 8, and verified
    once, exactly (``_barrier_crossings``), which decides every level in
    (0, t0] (module docstring, step 4).  No float is read; f_x0, a and b
    are rounded once, at the end.  Raises NotSingleSignedOnInterval, its
    reason prefixed with x0, when h has no critical point below top.hi or
    the barrier fails, and OverflowError when f_x0, a or b would be 0.
    """
    dh = uni.derivative(h)
    width = top.lo * uni.DEFAULT_WIDTH
    crits = uni.isolate_roots(dh, Fraction(0), top.hi, width)
    if not crits:
        raise NotSingleSignedOnInterval(f"x0 = {x0}: restriction has no interior critical point")
    # positive: h > 0 on (0, f(x0)), and a root of h' past it fails step 4
    vmin = min(uni.ueval(h, iv.midpoint) for iv in crits)

    t0 = (vmin / 2).limit_denominator(max(10**9, math.ceil(4 / vmin)))
    crossings = _barrier_crossings(h, dh, t0, top.hi, width)
    if crossings is None:
        raise NotSingleSignedOnInterval(f"x0 = {x0}: could not place a rational barrier")

    a, b = crossings
    profile = RestrictionProfile(f_x0_root=top, t0=t0, h_coeffs=tuple(h), a_root=a, b_root=b)
    profile.f_x0, profile.a, profile.b  # rounded once, here
    return profile


def _shifted_by(c: list[Fraction], t: Fraction) -> list[Fraction]:
    """c - t, normalized."""
    return uni.normalize([c[0] - t, *c[1:]]) if c else [-t]


def _barrier_crossings(
    h: list[Fraction],
    dh: list[Fraction],
    t0: Fraction,
    top_hi: Fraction,
    width: Fraction,
) -> list[uni.RealRoot] | None:
    """The crossings a < b of h = t0 in (0, top_hi), isolated to ``width``,
    if t0 is a valid barrier, else None.

    Valid: the facts of step 4 in the module docstring, top_hi the upper
    end of the isolating interval of f(x0).
    """
    roots = uni.isolate_roots(_shifted_by(h, t0), Fraction(0), top_hi, width)
    if len(roots) != 2 or any(r.multiplicity != 1 for r in roots):
        return None
    a_hi, b_lo = roots[0].hi, roots[1].lo
    valid = (
        a_hi < b_lo
        and uni.ueval(h, (a_hi + b_lo) / 2) > t0
        and not uni.count_roots(dh, Fraction(0), a_hi)
        and not uni.count_roots(dh, b_lo, top_hi)
    )
    return roots if valid else None


# ---------------------------------------------------------------------------
# Region assembly, with an exact x0
# ---------------------------------------------------------------------------


def region_orientation(
    p: BivariatePolynomial, criterion: CriterionCertificate
) -> tuple[Transform, bool]:
    """The axis sign change that puts the region in the first quadrant, and the flip.

    ``criterion`` is p's edge criterion, decided once by the caller; it
    must be satisfied.  Its witness edge runs from (0, 1) to (a, b), and
    its face a01 + a_ab c^(b - 1) has a simple positive root exactly when
    a01 a_ab < 0.  Negating y multiplies the term (i, j) by (-1)^j, so
    a01 a_ab by (-1)^(b + 1), and negating x multiplies it by (-1)^a.  So
    the identity serves when a01 a_ab < 0; otherwise negating y when b is
    even; otherwise negating x, since b odd makes a odd by
    gcd(a, b - 1) = 1 (module docstring, (H3)).  Negating both axes
    multiplies a01 a_ab by (-1)^(a + b + 1), so it would serve only when
    a + b is even, where negating y (both even) or x (both odd) already
    does.  p = a01 y + O(y^2) there, so p is flipped, negated,
    when a01 < 0: then p > 0 just above y = 0.  The returned transform,
    the criterion's swap followed by the sign change, is the full map from
    p to the region's coordinates.
    """
    if not criterion.satisfied:
        raise ValueError("polynomial does not satisfy the edge criterion")
    q = apply_transform(p, criterion.transform_used)
    a, b = criterion.endpoints[1]
    a01, a_ab = q.coefficient((0, 1)), q.coefficient((a, b))
    if a01 * a_ab < 0:
        negate_x = negate_y = False
    elif b % 2 == 0:
        negate_x, negate_y, a01 = False, True, -a01
    elif a % 2:
        negate_x, negate_y = True, False
    else:
        raise AssertionError(
            "no axis sign change gives the witness face a positive root, which "
            "gcd(a, b - 1) = 1 rules out: it takes a even and b odd"
        )
    return Transform(criterion.transform_used.swap_xy, negate_x, negate_y), a01 < 0


def build_tongue(p: BivariatePolynomial, criterion: CriterionCertificate) -> TongueRegion:
    """Assemble the region below the lowest positive branch, at an exact x0.

    ``criterion`` is p's edge criterion, decided once by the caller.  The
    transform and the flip are ``region_orientation``'s, read off the
    witness edge's two coefficients, and p is moved by them before
    anything else: it is positive just above y = 0.  x0 is
    ``check_no_critical_points``'s, the least power of two from which the
    witness edge proves (H1) and (H2) (module docstring, step 1); this is
    the one place that decides them.  The region's top at x0, f(x0), is
    the smallest positive root of h = p(x0, .), the one root of h in the
    bracket that the edge gives, isolated exactly to 10^-12 of the
    bracket's lower end; h > 0 on (0, f(x0)).  The root, with its
    factor, and h go to ``restriction_profile``.

    Raises LevelSetUndecided, through ``check_no_critical_points``, when
    the edge bounds nothing, and itself when x0 or f(x0) leaves the range
    of the report's floats, past 2^(+/-512); ValueError, through
    ``region_orientation``, when the criterion is not satisfied; and
    NotSingleSignedOnInterval or OverflowError, through
    ``restriction_profile``, when the barrier cannot be placed at x0 or a
    report float rounds to 0.
    """
    transform, flipped = region_orientation(p, criterion)
    p_t = apply_transform(p, transform)
    if flipped:
        p_t = -p_t
    x0, lo, hi = check_no_critical_points(p_t, criterion.endpoints[1])
    if x0 > 2**512 or lo < Fraction(1, 2**512):
        raise LevelSetUndecided(
            f"x0 = 2^{x0.numerator.bit_length() - 1}: x0 or f(x0) is past 2^(+/-512), "
            "outside the range of the report's floats"
        )
    h = p_t.restricted_to_x(x0)
    # f(x0) is the smallest root of h in (lo, hi), by (H2)
    top = uni.isolate_roots(h, lo, hi, lo * uni.DEFAULT_WIDTH)[0]
    return TongueRegion(
        transform=transform,
        flipped=flipped,
        poly=p_t,
        x0=x0,
        profile=restriction_profile(h, x0, top),
    )


def _edge_terms(p: BivariatePolynomial, end: tuple[int, int]):
    """a01, a_ab and the terms (c, i, j, n) of p off its witness edge (0, 1)-(a, b).

    n = a (j - 1) - i (b - 1) is a term's gap below the edge.  Raises
    LevelSetUndecided when a = 0, when not a01 > 0 > a_ab, or when a term
    has n < 1 (module docstring, step 1).
    """
    a, b = end
    if a < 1:
        raise LevelSetUndecided(
            f"the witness edge (0, 1)-({a}, {b}) has a = 0: p is free of x, "
            "so no bound decays along V"
        )
    a01, a_ab = p.coefficient((0, 1)), p.coefficient(end)
    if not a01 > 0 > a_ab:
        raise LevelSetUndecided(
            f"the witness edge (0, 1)-({a}, {b}) does not have a >= 1 and "
            "a01*a_ab < 0 with a01 > 0"
        )
    off = []
    for i, j in sorted(p.support()):
        if (i, j) in ((0, 1), end):
            continue
        n = a * (j - 1) - i * (b - 1)
        if n < 1:
            raise LevelSetUndecided(
                f"the term x^{i}*y^{j} of p is not below the witness edge "
                f"(0, 1)-({a}, {b}): a(j - 1) - i(b - 1) = {n} < 1"
            )
        off.append((p.coefficient((i, j)), i, j, n))
    return a01, a_ab, off


def _dyadic_root(v: Fraction, e: int) -> Fraction:
    """A dyadic u with (1 - 2^-12) v^(1/e) < u <= v^(1/e), for v > 0."""
    shift = 13 - (v.numerator.bit_length() - v.denominator.bit_length() - 1) // e
    scale = Fraction(2) ** shift
    n = math.floor(v * scale**e)
    # floor(n^(1/e)) by Newton's method from above
    r = 1 << -(-n.bit_length() // e)
    while (s := ((e - 1) * r + n // r ** (e - 1)) // e) < r:
        r = s
    return r / scale


def check_no_critical_points(
    p: BivariatePolynomial, end: tuple[int, int]
) -> tuple[Fraction, Fraction, Fraction]:
    """(H1) and (H2), decided exactly from the witness edge: x0, lo and hi.

    ``p`` is in the region's coordinates, and ``end`` is the far end (a, b)
    of its witness edge from (0, 1).  x0 = 2^k is the least power of two
    at which the edge parts F(u), (uF)'(u) and a a_ab u^b outweigh the
    bounds G(k), Y(k) and X(k) on every other term (module docstring,
    step 1).  From x0 on, f(x) is the one root of p(x, .) in
    (0, C x^theta), simple and above m x^theta, and p has no critical point
    on the closure of V.  Since n >= 1, each bound at k = (b - 1) t is at
    most its value at k = 0 over 2^t, so k <= (b - 1) t for t the least
    integer with 2^t past each bound at 0 over its margin.  The bounds fall
    with k: the first multiple of b - 1 at which they hold is found by
    stepping t, and k is bisected for below it.  lo = m 2^-ceil(k a / (b - 1))
    and hi = C 2^-floor(k a / (b - 1)) bracket f(x0).  Raises
    LevelSetUndecided when the edge has a = 0, when not a01 > 0 > a_ab, or
    when a term of p is not below the edge.
    """
    a, b = end
    a01, a_ab, off = _edge_terms(p, end)
    e = b - 1
    q = a01 / -a_ab
    s, m, cap = (_dyadic_root(q * r, e) for r in (Fraction(1, 2 * b), Fraction(b + 1, 2 * b), 2))
    margins = (
        min(a01 + a_ab * m**e, -a01 - a_ab * cap**e),
        min(a01 + b * a_ab * s**e, -a01 - b * a_ab * m**e),
        -a * a_ab * s**b,
    )
    weights = [
        (n, (abs(c) * cap ** (j - 1), abs(c) * j * cap ** (j - 1), abs(c) * i * cap**j))
        for c, i, j, n in off
    ]

    def holds(k: int) -> bool:
        # G(k), Y(k) and X(k) at x0 = 2^k, each below its margin
        return all(
            sum(w[r] / 2 ** (k * n // e) for n, w in weights) < margins[r] for r in range(3)
        )

    t = 0
    while not holds(e * t):
        t += 1
    # the bounds fall with k, so the least k that holds is bisected for
    k = bisect.bisect_left(range(e * t + 1), True, key=holds)
    return Fraction(2**k), m / 2 ** -(-k * a // e), cap / 2 ** (k * a // e)


def _point_below(lo: Fraction) -> Fraction:
    """A power of two at most 1 in (0, lo / 2]: below a root isolated from lo up."""
    e = lo.numerator.bit_length() - lo.denominator.bit_length()
    return Fraction(2) ** min(0, e - 1 - (lo < Fraction(2) ** e))  # 2^(floor(log2 lo) - 1)


# ---------------------------------------------------------------------------
# Level sets, decided exactly
# ---------------------------------------------------------------------------


def _ends_above_barrier(h, h2, px, f_hi: Fraction, t: Fraction) -> int:
    """Ends of the level t > t0, all on the segment side: none is at infinity (step 3).

    h = p(x0, .), h2 its second derivative h'' and px = p_x(x0, .), taken
    once per certificate by ``check_level_sets``; f_hi is the upper end of
    the isolating interval of f(x0).  The count is even (step 3).
    """
    ends = 0
    for factor, mult in uni.squarefree_decomposition(_shifted_by(h, t)):
        if mult == 1:
            ends += uni.count_roots(factor, Fraction(0), f_hi)
            continue
        for root in uni.isolate_roots(factor, Fraction(0), f_hi):
            if mult != 2:
                raise LevelSetUndecided(
                    f"h - t has a root of multiplicity {mult} near y = "
                    f"{float(root.midpoint)!r} for t = {t}"
                )
            # beside a double root h - t has the sign of h'' there: where
            # p_x(x0, .) has that sign too the level is tangent from outside
            # V, and where it has the other sign two strands enter V
            if root.sign(h2) != root.sign(px):
                ends += 2
    return ends


def check_level_sets(region: TongueRegion, t_values) -> LevelSetReport:
    """Classify each level p = t in V by its exact ends, all on the segment side.

    p is ``region.poly``, at the x0 of ``build_tongue``, which decided (H1)
    and (H2) from the witness edge and flipped p to be positive on the
    segment side.  Only the premises that the criterion proves are checked
    here, on the support: the term (a, b) with j >= 2 that maximises
    (i / (j - 1), j), the witness edge's far end, has a >= 1 and
    a01 > 0 > a_ab, and every other term has n = a(j - 1) - i(b - 1) >= 1.
    So the terms with j <= 1 are exactly a01*y, for (H3), and p = O(x^theta)
    on V, for step 3: no level t > 0 has an end at infinity.  The report's
    ``exact_facts`` state the hypotheses, the edge bound with its k first.
    A level t <= 0 is empty, since p > 0 on V.  One with 0 < t <= t0 is one
    arc with both ends on the segment side, for every such t, by the
    barrier check of ``restriction_profile`` (step 4): it takes no count.
    Only a level above t0 is counted, by ``_ends_above_barrier``, from h''
    and p_x(x0, .) taken once here: nothing, or arcs in the pocket
    (step 5).  Raises LevelSetUndecided when a premise fails, a count
    above t0 stays undecided or a fact has too many digits for ``str``.
    """
    p, prof = region.poly, region.profile
    far_end = ((Fraction(i, j - 1), j, i) for i, j in p.support() if j >= 2)
    _, b, a = max(far_end, default=(0, 0, 0))
    _edge_terms(p, (a, b))
    h = list(prof.h_coeffs)
    top = prof.f_x0_root
    ym = _point_below(top.lo)
    k = region.x0.numerator.bit_length() - 1
    try:
        positive = f"p > 0 on V: p(x0, {ym}) = {uni.ueval(h, ym)}"
    except ValueError:  # an int past sys.get_int_max_str_digits(), which is read, never set
        limit = sys.get_int_max_str_digits()
        raise LevelSetUndecided(f"p(x0, {ym}) has over {limit} digits, the str() limit") from None
    facts = (
        f"the witness edge (0, 1)-({a}, {b}) outweighs every other term of p/y, p_y and "
        f"x^(1 - theta)*p_x on 0 < y < C*x^theta for x >= x0 = 2^{k}: f is the one "
        "root of p(x, .) there, and simple, and p has no critical point on the "
        "closure of V",
        "every other term of p is below the edge, so the terms with j <= 1 are exactly "
        "a01*y: y = 0 is a simple root of every p(x, .), and f stays above it",
        positive,
    )
    h2 = uni.derivative(uni.derivative(h))
    px = p.partial_derivative("x").restricted_to_x(region.x0)
    records = []
    for t in sorted(map(Fraction, t_values)):
        ends = 0 if t <= 0 else 2 if t <= prof.t0 else _ends_above_barrier(h, h2, px, top.hi, t)
        shape = (SEGMENT_ARC if t <= prof.t0 else CONTAINED_IN_B) if ends else EMPTY
        records.append(LevelRecord(float(t), shape, ends))
    return LevelSetReport(records=tuple(records), exact_facts=facts)


# ---------------------------------------------------------------------------
# Certificate assembly
# ---------------------------------------------------------------------------


def default_schedule(t0: Fraction) -> list[Fraction]:
    """20 levels up to the barrier, 5 at or below zero, 5 above the barrier."""
    t0 = Fraction(t0)
    pos = [t0 * Fraction(k, 20) for k in range(1, 21)]
    nonpos = [Fraction(0), -t0 / 2, -t0, Fraction(-1), Fraction(-2)]
    above = [t0 * Fraction(9, 8), t0 * Fraction(3, 2), 2 * t0, 4 * t0, 8 * t0]
    return nonpos + pos + above


def tongue_certificate(p: BivariatePolynomial, criterion: CriterionCertificate) -> TongueCertificate:
    """Run the full region pipeline and aggregate the checks.

    ``criterion`` is p's edge criterion, decided once by the caller and
    handed down to ``build_tongue``, which places the region at its exact
    x0; the levels follow ``default_schedule``.  Verified means the level
    argument holds: the barrier decides every level in (0, t0], and each
    scheduled level above t0 is counted exactly, its double roots read off
    h'' (module docstring, step 3).  A hypothesis that fails, a count left
    undecided or a float past range reports Inconclusive, naming it; an
    unsatisfied criterion or a region that cannot be assembled at x0, the
    one NotSingleSignedOnInterval, reports Failed with its reason.
    """
    if not criterion.satisfied:
        return TongueCertificate(FAILED, ("criterion not satisfied",), None, None)
    try:
        region = build_tongue(p, criterion)
    except (LevelSetUndecided, OverflowError) as exc:
        return TongueCertificate(INCONCLUSIVE, (str(exc),), None, None)
    except NotSingleSignedOnInterval as exc:
        return TongueCertificate(FAILED, (str(exc),), None, None)

    levels = default_schedule(region.profile.t0)
    try:
        level_report = check_level_sets(region, levels)
    except LevelSetUndecided as exc:
        return TongueCertificate(INCONCLUSIVE, (str(exc),), region, None)
    return TongueCertificate(VERIFIED, (), region, level_report)
