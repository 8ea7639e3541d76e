"""Tongue regions under the lowest positive branch, and their level checks.

After moving the certified branch into the first quadrant, the strip

    V = { (x, y) : x > x0, 0 < y < f(x) }

below the traced boundary f, together with the segment {x0} x (0, f(x0)),
forms a region A whose border contains the half-line y = 0, x >= x0.  The
checks here verify, at a chosen resolution, that A behaves like a tongue:
p has no interior critical point, every positive level at or below a
barrier t0 cuts A in a single arc pinned to the segment, and every level
above t0 stays inside a bounded pocket B.

Everything decision-critical on the segment side (critical points of the
restriction, barrier placement, endpoint parity) is done in exact rational
arithmetic.  The interior critical-point check places its vertical slices
exactly, at the real roots of a resultant, and tests each slice to a float
tolerance; the level sweeps are floating point on a configured raster.
Both report their findings as data, never as proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import univariate as uni
from .branches import (
    BranchLost,
    BranchTrace,
    NoConfirmedBranch,
    NoConvergence,
    TraceConfig,
    lowest_positive_branch,
)
from .poly import BivariatePolynomial, Transform, apply_transform, evaluate_on_grid
from .polygon import corollary_certificate

__all__ = [
    "NotSingleSignedOnInterval",
    "NoInteriorCriticalPoint",
    "MixedSignOnRegion",
    "CriticalPointsPersist",
    "ResolutionTooCoarse",
    "GridSpec",
    "RestrictionProfile",
    "TongueRegion",
    "LevelRecord",
    "LevelSetReport",
    "CriticalPointReport",
    "TongueCertificate",
    "EMPTY",
    "SEGMENT_ARC",
    "CONTAINED_IN_B",
    "VERIFIED",
    "INCONCLUSIVE",
    "FAILED",
    "restriction_profile",
    "build_tongue",
    "boundary_interpolator",
    "check_no_critical_points",
    "check_level_sets",
    "default_schedule",
    "tongue_certificate",
    "extract_polylines",
    "halton_points",
]

EMPTY = "Empty"
SEGMENT_ARC = "SegmentWithBoundaryEndpoints"
CONTAINED_IN_B = "ContainedInB"

VERIFIED = "Verified"
INCONCLUSIVE = "Inconclusive"
FAILED = "Failed"

X0_BUDGET = Fraction(2**20)

# Exact vertical slices spread evenly over the strip by the critical-point
# check, on top of its dense run near x0, when the partials share a factor.
CRITICAL_SLICES = 192

# Points closer to the traced branch than this are boundary at grid
# resolution: the interpolant is only trusted to ~1e-4 relative between
# trace samples, while the barrier keeps every scheduled arc at least
# t0/20 away, which is ~1/160 of the strip height near the segment side
# and a few grid rows everywhere else.
BOUNDARY_COLLAR = 1e-3


class NotSingleSignedOnInterval(ValueError):
    pass


class NoInteriorCriticalPoint(ValueError):
    pass


class MixedSignOnRegion(RuntimeError):
    """The polynomial changed sign on a sample of the strip below the branch."""


class CriticalPointsPersist(RuntimeError):
    pass


class ResolutionTooCoarse(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Raster resolution for the level-set sweeps.

    ``x_max`` of None asks for an automatic horizon: wide enough that the
    smallest scheduled level no longer reaches it, never below 50.  The
    critical-point check reads only ``x_max``: its slices come from a
    resultant, not from the raster.
    """

    nx: int = 1000
    ny: int = 1000
    x_max: float | None = None

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ValueError("grids need at least 16 nodes per axis")


@dataclass(frozen=True)
class RestrictionProfile:
    """Exact shape of h(y) = p(x0, y) on the segment side of the region.

    t0 is a rational barrier strictly below every interior critical value
    of h; a and b are the two points where h crosses t0, bracketed exactly
    and reported as floats.
    """

    x0: Fraction
    f_x0: float
    t0: Fraction
    a: float
    b: float
    critical_points_of_h: tuple[float, ...]
    h_coeffs: tuple[Fraction, ...]
    a_interval: tuple[Fraction, Fraction]
    b_interval: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CriticalPointReport:
    passed: bool
    witnesses: tuple[tuple[float, float], ...]
    slices_checked: int
    degenerate: bool = False


@dataclass(frozen=True)
class TongueRegion:
    transform: Transform
    flipped: bool
    poly: BivariatePolynomial  # normalized: positive on the strip
    x0: Fraction
    boundary_trace: BranchTrace
    profile: RestrictionProfile
    # the critical-point check that accepted the region; None until it has run
    critical_point_check: CriticalPointReport | None


@dataclass(frozen=True)
class LevelRecord:
    t: float
    classification: str
    component_count: int
    boundary_endpoint_count: int
    closed_loop_detected: bool
    ok: bool
    anomalies: tuple[str, ...] = ()


@dataclass(frozen=True)
class LevelSetReport:
    records: tuple[LevelRecord, ...]
    passed: bool
    failures: tuple[str, ...]
    pocket_bbox: tuple[float, float, float, float] | None


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
    p: BivariatePolynomial, x0: Fraction | int, f_x0: float
) -> RestrictionProfile:
    """Analyze h(y) = p(x0, y) on (0, f_x0) and place the barrier t0.

    Requires h to vanish at 0, stay positive strictly inside, and come
    back to (nearly) zero at the traced height f_x0.  The barrier is half
    the smallest interior critical value, rounded to a small rational and
    then re-verified exactly: h - t0 must have exactly two simple roots
    a < b, h must exceed t0 between them, and h' must be root-free outside
    [a, b].
    """
    x0 = Fraction(x0)
    h = p.restricted_to_x(x0)
    if not h or h[0] != 0:
        raise NotSingleSignedOnInterval("restriction does not vanish at y = 0")
    ub = Fraction(f_x0) * (1 - Fraction(1, 10**9))
    if ub <= 0:
        raise NotSingleSignedOnInterval("empty restriction interval")
    scale = max(abs(c) * ub**k for k, c in enumerate(h) if c != 0)
    if abs(uni.ueval(h, Fraction(f_x0))) > scale * Fraction(1, 10**6):
        raise NotSingleSignedOnInterval("restriction does not return to zero")
    if uni.count_roots(h, Fraction(0), ub) != 0 or uni.ueval(h, ub / 2) <= 0:
        raise NotSingleSignedOnInterval("restriction changes sign inside the interval")

    dh = uni.derivative(h)
    crits = uni.isolate_roots(dh, Fraction(0), ub)
    if not crits:
        raise NoInteriorCriticalPoint("restriction has no interior critical point")
    crit_floats = tuple(uni.float_root(dh, iv) for iv in crits)
    vmin = min(uni.ueval(h, iv.midpoint) for iv in crits)
    if vmin <= 0:
        raise NotSingleSignedOnInterval("a critical value is not positive")

    t0 = (vmin / 2).limit_denominator(10**9)
    for _ in range(8):
        if t0 > 0 and _barrier_is_valid(h, dh, t0, ub):
            break
        t0 = t0 * Fraction(63, 64)
    else:
        raise NotSingleSignedOnInterval("could not place a rational barrier")

    shifted = _shifted(h, t0)
    roots = uni.isolate_roots(shifted, Fraction(0), ub)
    a_iv, b_iv = roots[0], roots[1]
    a = uni.float_root(shifted, a_iv)
    b = uni.float_root(shifted, b_iv)
    assert 0 < a < b < f_x0
    return RestrictionProfile(
        x0=x0,
        f_x0=f_x0,
        t0=t0,
        a=a,
        b=b,
        critical_points_of_h=crit_floats,
        h_coeffs=tuple(h),
        a_interval=(a_iv.lo, a_iv.hi),
        b_interval=(b_iv.lo, b_iv.hi),
    )


def _shifted(h: list[Fraction], t0: Fraction) -> list[Fraction]:
    out = list(h)
    out[0] -= t0
    return out


def _barrier_is_valid(
    h: list[Fraction], dh: list[Fraction], t0: Fraction, ub: Fraction
) -> bool:
    roots = uni.isolate_roots(_shifted(h, t0), Fraction(0), ub)
    if len(roots) != 2 or any(r.multiplicity != 1 for r in roots):
        return False
    a_hi, b_lo = roots[0].hi, roots[1].lo
    if a_hi >= b_lo:
        return False
    if uni.ueval(h, (a_hi + b_lo) / 2) <= t0:
        return False
    if uni.count_roots(dh, Fraction(0), a_hi) != 0:
        return False
    if uni.count_roots(dh, b_lo, ub) != 0:
        return False
    return True


# ---------------------------------------------------------------------------
# Boundary interpolation and sampling
# ---------------------------------------------------------------------------


class boundary_interpolator:
    """Piecewise power-law interpolant of a positive traced branch."""

    def __init__(self, trace: BranchTrace):
        xs = np.array([x for x, _ in trace.samples])
        ys = np.array([y for _, y in trace.samples])
        if np.any(ys <= 0):
            raise ValueError("boundary interpolation needs a positive branch")
        self._logx = np.log(xs)
        self._logy = np.log(ys)
        self._theta = float(trace.theta)

    def __call__(self, x):
        lx = np.log(np.asarray(x, dtype=float))
        ly = np.interp(lx, self._logx, self._logy)
        # beyond the trace, continue with the asymptotic power law
        right = lx > self._logx[-1]
        if np.any(right):
            ly = np.where(
                right, self._logy[-1] + self._theta * (lx - self._logx[-1]), ly
            )
        left = lx < self._logx[0]
        if np.any(left):
            ly = np.where(left, self._logy[0] + self._theta * (lx - self._logx[0]), ly)
        return np.exp(ly)


def halton_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic low-discrepancy pairs in the unit square (bases 2, 3).

    The sequence starts at index 1: index 0 is the corner (0, 0).
    """

    def radical_inverse(base: int, k: int) -> float:
        inv, f = 0.0, 1.0 / base
        while k:
            inv += (k % base) * f
            k //= base
            f /= base
        return inv

    idx = range(1, n + 1)
    u = np.array([radical_inverse(2, k) for k in idx])
    v = np.array([radical_inverse(3, k) for k in idx])
    return u, v


# ---------------------------------------------------------------------------
# Region assembly
# ---------------------------------------------------------------------------


def _sample_sign(p: BivariatePolynomial, f, x0: float, x_hi: float) -> int:
    """Strict sign of p over a low-discrepancy sample of the strip; 0 if mixed."""
    u, v = halton_points(100)
    xs = x0 * (x_hi / x0) ** u
    # stay a collar away from the traced branch: interpolation error there
    # can put a sample on the wrong side of the true curve
    ys = np.asarray(f(xs)) * (1e-6 + (1 - 1e-6 - BOUNDARY_COLLAR) * v)
    vals = [p.evaluate_approx(float(x), float(y)) for x, y in zip(xs, ys)]
    if all(val > 0 for val in vals):
        return 1
    if all(val < 0 for val in vals):
        return -1
    return 0


def _schedule_floor(profile: RestrictionProfile) -> float:
    return float(profile.t0) / 20.0


def _slice_max(p: BivariatePolynomial, f, x: float) -> float:
    top = float(f(x))
    ys = np.linspace(0.0, top, 257)[1:]
    vals = evaluate_on_grid(p, np.array([x]), ys)[0]
    return float(np.max(vals))


def _auto_horizon(p_star: BivariatePolynomial, f, x0: float, t_floor: float) -> float:
    """Smallest comfortable truncation: past it, no scheduled level reaches."""
    x_lo, x_hi = x0, max(2.0 * x0, 50.0)
    while _slice_max(p_star, f, x_hi) >= t_floor:
        x_lo = x_hi
        x_hi *= 2
        if x_hi > 1e5:
            return 1e5
    for _ in range(8):
        mid = math.sqrt(x_lo * x_hi)
        if _slice_max(p_star, f, mid) >= t_floor:
            x_lo = mid
        else:
            x_hi = mid
    return max(50.0, 1.3 * x_hi, 4.0 * x0)


def build_tongue(
    p: BivariatePolynomial,
    x0: Fraction | int = 1,
    grid: GridSpec | None = None,
) -> TongueRegion:
    """Assemble the region below the lowest positive branch, from x0 outward.

    The starting abscissa doubles until the interior critical-point check
    comes back clean (and until the branch can actually be traced from
    there), within a fixed budget.  The returned region carries that clean
    check as ``critical_point_check``.  Raises ValueError, through
    ``lowest_positive_branch``, when p fails the edge criterion.
    """
    grid = grid or GridSpec()
    x0 = Fraction(x0)
    last_reason = "no attempt made"
    while x0 <= X0_BUDGET:
        try:
            region = _assemble_region(p, x0, grid)
        except (
            BranchLost,
            NoConvergence,
            NoConfirmedBranch,
            NotSingleSignedOnInterval,
            NoInteriorCriticalPoint,
            MixedSignOnRegion,
        ) as exc:
            last_reason = f"x0={x0}: {exc}"
            x0 *= 2
            continue
        report = check_no_critical_points(region.poly, region, grid)
        if report.passed:
            return replace(region, critical_point_check=report)
        last_reason = f"x0={x0}: critical point near {report.witnesses[:1]}"
        x0 *= 2
    raise CriticalPointsPersist(
        f"no clean region up to the x0 budget; last failure: {last_reason}"
    )


def _assemble_region(
    p: BivariatePolynomial, x0: Fraction, grid: GridSpec
) -> TongueRegion:
    probe_cfg = TraceConfig(x_start=float(x0), x_end=float(x0) * 16, growth_factor=1.1)
    transform, probe_trace = lowest_positive_branch(p, probe_cfg)
    f_probe = boundary_interpolator(probe_trace)
    p_t = apply_transform(p, transform)
    sign = _sample_sign(p_t, f_probe, float(x0), float(x0) * 16)
    if sign == 0:
        raise MixedSignOnRegion("sign disagreement on the strip sample")
    flipped = sign < 0
    p_star = -p_t if flipped else p_t

    f_x0 = probe_trace.samples[0][1]
    profile = restriction_profile(p_star, x0, f_x0)

    x_max = grid.x_max
    if x_max is None:
        x_max = _auto_horizon(p_star, f_probe, float(x0), _schedule_floor(profile))
    full_cfg = TraceConfig(x_start=float(x0), x_end=float(x_max), growth_factor=1.02)
    transform2, trace = lowest_positive_branch(p, full_cfg)
    assert transform2 == transform
    return TongueRegion(
        transform=transform,
        flipped=flipped,
        poly=p_star,
        x0=x0,
        boundary_trace=trace,
        profile=profile,
        critical_point_check=None,
    )


# ---------------------------------------------------------------------------
# Critical point check
# ---------------------------------------------------------------------------


def check_no_critical_points(
    p: BivariatePolynomial, region: TongueRegion, grid: GridSpec | None = None
) -> CriticalPointReport:
    """Look for simultaneous zeros of both partials in the strip.

    Exact: which vertical slices to examine.  Every isolated critical point
    lies over a real root of R(x) = Res_y(p_x, p_y); the slices are R's real
    roots in [x0, x_max], rational ones exactly, others to width 1e-14.  If
    R = 0 the partials share a factor, a critical curve, and the slices are
    the fixed ``CRITICAL_SLICES`` schedule.  Numeric: each slice runs up to
    the traced strip top, and a root of p_y or of p_yy there at which |p_x|
    and |p_y| are both below 1e-9 is a witness.  Any witness fails the check,
    as data, not an exception.  ``slices_checked`` counts the slices examined.
    """
    grid = grid or GridSpec()
    x0 = region.x0
    x_max = grid.x_max or region.boundary_trace.samples[-1][0]
    if x_max <= x0:
        return CriticalPointReport(True, (), 0, degenerate=True)
    f = boundary_interpolator(region.boundary_trace)
    px, py = p.partial_derivative("x"), p.partial_derivative("y")
    pyy = py.partial_derivative("y")
    witnesses: list[tuple[float, float]] = []

    res = _critical_resultant(px, py)
    if res:
        slices = _resultant_roots(res, x0, Fraction(x_max))
    else:
        nsl = CRITICAL_SLICES
        span = Fraction(x_max).limit_denominator(10**6) - x0
        slices = [x0 + span * Fraction(k, nsl) for k in range(1, nsl + 1)]
        slices += [x0 * (1 + Fraction(m, 64)) for m in range(0, 65)]
        slices = [x for x in dict.fromkeys(slices) if x0 <= x and float(x) <= x_max]
    for xq in slices:
        ub = Fraction(float(f(float(xq)))).limit_denominator(10**12)
        ub = ub * (1 - Fraction(1, 10**9))
        if ub <= 0:
            continue
        gy = py.restricted_to_x(xq)
        if not gy:
            candidates = [ub / 2]  # dp/dy vanishes on the whole slice
        else:
            candidates = [
                iv.midpoint
                for g in (gy, pyy.restricted_to_x(xq))
                for iv in uni.isolate_roots(g, Fraction(0), ub, Fraction(1, 10**14))
            ]
        for yq in candidates:
            wx, wy = float(xq), float(yq)
            if all(abs(d.evaluate_approx(wx, wy)) < 1e-9 for d in (px, py)):
                witnesses.append((wx, wy))

    unique = tuple(dict.fromkeys(witnesses))
    return CriticalPointReport(not unique, unique, len(slices))


def _critical_resultant(px, py) -> list[Fraction]:
    """Res_y(p_x, p_y) at formal degrees, interpolated in x; [] on a shared factor."""
    if px.is_zero or py.is_zero:
        return []
    m, n = px.degree_y(), py.degree_y()
    return uni.interpolate([
        uni.resultant(px.restricted_to_x(k), py.restricted_to_x(k), m, n)
        for k in range(n * px.degree_x() + m * py.degree_x() + 1)
    ])


def _resultant_roots(res, lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Real roots of res in the closed [lo, hi], rational ones exactly."""
    # Descartes: with no sign change in res(lo + t), res has no root past lo,
    # and Sturm isolation, slow on a resultant of high degree, is skipped
    shifted = list(res)
    for i in range(len(res)):
        for k in range(len(res) - 2, i - 1, -1):
            shifted[k] += lo * shifted[k + 1]
    roots = [x for x in (lo, hi) if uni.ueval(res, x) == 0]
    if len({c > 0 for c in shifted if c}) > 1:
        for iv in uni.isolate_roots(res, lo, hi, width=Fraction(1, 10**14)):
            guess = iv.midpoint.limit_denominator(10**6)
            exact = iv.lo <= guess <= iv.hi and uni.ueval(res, guess) == 0
            roots.append(guess if exact else iv.midpoint)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Level set extraction (marching squares)
# ---------------------------------------------------------------------------

# corner bits: 1 = bottom-left, 2 = bottom-right, 4 = top-right, 8 = top-left
# edges: 0 = bottom, 1 = right, 2 = top, 3 = left
_CASE_SEGMENTS: dict[int, tuple[tuple[int, int], ...]] = {
    1: ((3, 0),),
    2: ((0, 1),),
    3: ((3, 1),),
    4: ((1, 2),),
    6: ((0, 2),),
    7: ((3, 2),),
    8: ((3, 2),),
    9: ((0, 2),),
    11: ((1, 2),),
    12: ((3, 1),),
    13: ((0, 1),),
    14: ((3, 0),),
}


class _Field:
    """Scalar field p on the raster over [x0, x_max] x [0, f(x0)].

    Extraction runs over the full rectangle; clipping to the region
    happens afterwards, per connected component.  A positive level never
    meets the boundary branch (p vanishes there), so whole components can
    be kept or dropped; the drop test carries a collar absorbing the
    interpolation error of the traced branch itself.
    """

    def __init__(self, p, region: TongueRegion, grid: GridSpec):
        self.x0 = float(region.x0)
        self.x_max = grid.x_max or region.boundary_trace.samples[-1][0]
        self.f = boundary_interpolator(region.boundary_trace)
        self.xs = np.linspace(self.x0, self.x_max, grid.nx)
        self.ys = np.linspace(0.0, region.profile.f_x0, grid.ny)
        self.dx = self.xs[1] - self.xs[0]
        self.dy = self.ys[1] - self.ys[0]
        self.values = evaluate_on_grid(p, self.xs, self.ys)
        self.p = p

    def components(self, t: float):
        """Polylines of the level p = t kept inside the strip."""
        comps = _walk_components(*_extract_level(self, t))
        return _components_in_region(comps, self.f, self.dy)


def _edge_key(i: int, j: int, edge: int):
    if edge == 0:
        return ("h", i, j)
    if edge == 2:
        return ("h", i, j + 1)
    if edge == 3:
        return ("v", i, j)
    return ("v", i + 1, j)


def _extract_level(field: _Field, t: float):
    """Marching squares at one level; returns (segments, crossing points).

    Cells with a diagonal sign pattern get one refinement: the sign of the
    field at the cell center decides the pairing.  A center that evaluates
    to exactly zero leaves the topology undecidable at this resolution.
    """
    F = field.values - t
    pos = F > 0
    A = pos[:-1, :-1]
    B = pos[1:, :-1]
    C = pos[1:, 1:]
    D = pos[:-1, 1:]
    case = (
        A.astype(np.int8)
        + 2 * B.astype(np.int8)
        + 4 * C.astype(np.int8)
        + 8 * D.astype(np.int8)
    )
    interesting = (case > 0) & (case < 15)
    xs, ys = field.xs, field.ys
    points: dict[tuple, tuple[float, float]] = {}
    segments: list[tuple[tuple, tuple]] = []

    def crossing(i0, j0, i1, j1):
        v0, v1 = F[i0, j0], F[i1, j1]
        frac = v0 / (v0 - v1)
        return (
            xs[i0] + frac * (xs[i1] - xs[i0]),
            ys[j0] + frac * (ys[j1] - ys[j0]),
        )

    def edge_point(i, j, edge):
        key = _edge_key(i, j, edge)
        if key not in points:
            if edge == 0:
                points[key] = crossing(i, j, i + 1, j)
            elif edge == 1:
                points[key] = crossing(i + 1, j, i + 1, j + 1)
            elif edge == 2:
                points[key] = crossing(i, j + 1, i + 1, j + 1)
            else:
                points[key] = crossing(i, j, i, j + 1)
        return key

    for i, j in np.argwhere(interesting):
        c = int(case[i, j])
        if c in (5, 10):
            cx = 0.5 * (xs[i] + xs[i + 1])
            cy = 0.5 * (ys[j] + ys[j + 1])
            center = field.p.evaluate_approx(float(cx), float(cy)) - t
            if center == 0.0:
                raise ResolutionTooCoarse(
                    f"saddle cell at ({cx}, {cy}) undecidable at this resolution"
                )
            if c == 5:
                pairs = ((0, 1), (2, 3)) if center > 0 else ((3, 0), (1, 2))
            else:
                pairs = ((3, 0), (1, 2)) if center > 0 else ((0, 1), (2, 3))
        else:
            pairs = _CASE_SEGMENTS[c]
        for e1, e2 in pairs:
            segments.append(
                (edge_point(int(i), int(j), e1), edge_point(int(i), int(j), e2))
            )
    return segments, points


def _walk_components(segments, points):
    """Stitch crossing segments into polylines keyed by shared grid edges."""
    adj: dict[tuple, list[tuple]] = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    visited: set[tuple] = set()
    components = []
    # open chains first: start at degree-1 keys for stable endpoints
    for start in sorted(k for k, nbrs in adj.items() if len(nbrs) == 1):
        if start in visited:
            continue
        components.append((_walk_from(start, adj, visited), False))
    for key in sorted(adj):
        if key in visited:
            continue
        components.append((_walk_from(key, adj, visited), True))
    return [(chain, [points[k] for k in chain], closed) for chain, closed in components]


def _walk_from(start, adj, visited):
    chain = [start]
    visited.add(start)
    cur, prev = start, None
    while True:
        nxt = None
        for cand in adj[cur]:
            if cand != prev and (
                cand not in visited or (cand == chain[0] and len(chain) > 2)
            ):
                nxt = cand
                break
        if nxt is None or nxt == chain[0]:
            break
        chain.append(nxt)
        visited.add(nxt)
        prev, cur = cur, nxt
    return chain


def _components_in_region(comps, f, dy):
    """Keep components inside the strip: above y=0 and below the branch."""
    kept = []
    for chain, pts, closed in comps:
        qx = np.array([q[0] for q in pts])
        qy = np.array([q[1] for q in pts])
        if float(qy.max()) <= 0.0:
            continue  # degenerate contact with the half-line border
        fq = np.asarray(f(qx))
        collar = np.maximum(BOUNDARY_COLLAR * fq, 2.0 * dy)
        if float(np.max(qy - (fq - collar))) >= 0.0:
            continue  # hugs or crosses the boundary branch
        kept.append((chain, pts, closed))
    return kept


def check_level_sets(
    p: BivariatePolynomial,
    region: TongueRegion,
    t_values,
    grid: GridSpec | None = None,
) -> LevelSetReport:
    """Classify each level p = t inside the clipped region.

    Expected shape, checked per level: nothing for t <= 0; one arc whose
    two endpoints lie on the segment side for 0 < t <= t0; nothing or a
    pocket-bound arc for t > t0.  Closed loops and curves reaching the
    truncation boundary are always anomalies.
    """
    profile = region.profile
    field = _Field(p, region, grid or GridSpec())
    t0 = float(profile.t0)

    barrier = field.components(t0)
    pocket = _pocket_bbox(field, barrier)
    failures: list[str] = []
    if pocket is None:
        failures.append("barrier level did not produce a single pinned arc")

    records = []
    for t in sorted(map(float, t_values)):
        comps = barrier if t == t0 else field.components(t)
        rec = _classify_level(field, comps, t, t0, profile, pocket)
        records.append(rec)
        if not rec.ok:
            failures.append(
                f"level t={rec.t!r}: {rec.classification} "
                f"(components={rec.component_count}, "
                f"endpoints={rec.boundary_endpoint_count}, "
                f"anomalies={list(rec.anomalies)})"
            )
    return LevelSetReport(
        records=tuple(records),
        passed=not failures,
        failures=tuple(failures),
        pocket_bbox=pocket,
    )


def _pocket_bbox(field: _Field, comps):
    """Bounding box of the barrier-level arc plus its chord on the segment."""
    if len(comps) != 1 or comps[0][2]:
        return None
    xs, ys = zip(*comps[0][1])
    return (field.x0, max(xs), min(ys), max(ys))


def _classify_level(field: _Field, comps, t: float, t0: float, profile, pocket) -> LevelRecord:
    x0, x_max, dy = field.x0, field.x_max, field.dy
    n = len(comps)
    anomalies: list[str] = []
    loops = any(closed for _, _, closed in comps)
    boundary_endpoints = 0
    eps_x = (x_max - x0) * 1e-9 + 1e-12
    f_right = float(field.f(x_max))

    for chain, pts, closed in comps:
        if closed:
            anomalies.append("closed loop inside the region")
            continue
        for end_pt in (pts[0], pts[-1]):
            ex, ey = end_pt
            if abs(ex - x0) <= eps_x:
                boundary_endpoints += 1
                if not (0 < ey < profile.f_x0):
                    anomalies.append(f"segment endpoint at height {ey!r} out of range")
            elif ex >= x_max - eps_x:
                # tolerate only the corner sliver where the branch itself exits
                if ey < f_right - 3 * dy:
                    anomalies.append(
                        f"curve reaches the truncation boundary at y={ey!r}"
                    )
            else:
                anomalies.append(f"loose endpoint at ({ex!r}, {ey!r})")

    if n == 0:
        classification = EMPTY
        ok = t <= 0 or t > t0
        if not ok:
            anomalies.append("expected one arc strictly below the barrier")
    elif t <= 0:
        classification = SEGMENT_ARC if boundary_endpoints else CONTAINED_IN_B
        ok = False
        anomalies.append("nonempty level at t <= 0")
    elif t <= t0:
        classification = SEGMENT_ARC
        ok = n == 1 and boundary_endpoints == 2 and not loops and not anomalies
    else:
        classification = CONTAINED_IN_B
        ok = (
            not loops
            and not anomalies
            and _contained_in_pocket(comps, pocket, profile, field.dx, dy)
        )
        if not ok and not anomalies:
            anomalies.append("arc above the barrier leaves the pocket")
    return LevelRecord(
        t=t,
        classification=classification,
        component_count=n,
        boundary_endpoint_count=boundary_endpoints,
        closed_loop_detected=loops,
        ok=ok,
        anomalies=tuple(anomalies),
    )


def _contained_in_pocket(comps, pocket, profile, dx, dy) -> bool:
    if pocket is None:
        return False
    x_lo, x_hi, y_lo, y_hi = pocket
    tx, ty = 2 * dx, 2 * dy
    for _, pts, _ in comps:
        for qx, qy in pts:
            if not (x_lo - tx <= qx <= x_hi + tx and y_lo - ty <= qy <= y_hi + ty):
                return False
        for end_pt in (pts[0], pts[-1]):
            if not (profile.a - ty <= end_pt[1] <= profile.b + ty):
                return False
    return True


def extract_polylines(
    p: BivariatePolynomial,
    region: TongueRegion,
    t_values,
    grid: GridSpec | None = None,
):
    """Level polylines clipped to the region, as [(t, [polyline, ...]), ...].

    Rendering support; the classification checks recompute their own
    extraction at full resolution.
    """
    field = _Field(p, region, grid or GridSpec())
    return [
        (float(t), [pts for _, pts, _ in field.components(float(t))])
        for t in sorted(t_values, key=float)
    ]


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


def tongue_certificate(
    p: BivariatePolynomial, grid: GridSpec | None = None
) -> TongueCertificate:
    """Run the full region pipeline and aggregate the checks.

    The region starts at x0 = 1 and is accepted by ``build_tongue`` only
    with a clean critical-point check, whose report is passed along; the
    levels follow ``default_schedule``.  Verified means every check passed
    at the configured resolution; it is a numeric status, not a proof
    object.  A saddle cell the raster cannot decide reports Inconclusive;
    violated expectations report Failed.
    """
    grid = grid or GridSpec()
    cert = corollary_certificate(p, allow_swap=True)
    if not cert.satisfied:
        return TongueCertificate(FAILED, ("criterion not satisfied",), None, None)
    try:
        region = build_tongue(p, grid=grid)
    except CriticalPointsPersist as exc:
        return TongueCertificate(FAILED, (str(exc),), None, None)

    levels = default_schedule(region.profile.t0)
    try:
        level_report = check_level_sets(region.poly, region, levels, grid)
    except ResolutionTooCoarse as exc:
        return TongueCertificate(INCONCLUSIVE, (str(exc),), region, None)

    status = VERIFIED if level_report.passed else FAILED
    return TongueCertificate(status, tuple(level_report.failures[:5]), region, level_report)
