"""SVG figures: Newton polygons with highlighted edges, and tongue regions.

Pure string assembly, deterministic byte-for-byte for fixed inputs.  The
tongue figure draws the traced top border and level curves from a
marching-squares raster; the certificate never reads either.
"""

from __future__ import annotations

import math

import numpy as np

from .branches import BranchTrace, TraceConfig, lowest_positive_branch
from .poly import BivariatePolynomial, evaluate_on_grid
from .polygon import (
    CriterionCertificate,
    NewtonPolygon,
    PointPolygon,
    outer_edges,
)
from .tongue import (
    EMPTY,
    SEGMENT_ARC,
    GridSpec,
    LevelSetReport,
    RestrictionProfile,
    TongueRegion,
)

__all__ = [
    "LevelRaster",
    "ResolutionTooCoarse",
    "boundary_interpolator",
    "boundary_trace",
    "render_polygon_svg",
    "render_tongue_svg",
]

LATTICE_UNIT = 24
_MARGIN = 36


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def render_polygon_svg(
    polygon: NewtonPolygon, cert: CriterionCertificate | None = None
) -> str:
    """Lattice dots, hull, right outer edges, and the witness edge if any."""
    support = set(polygon.support)
    pts = list(support) + list(polygon.vertices)
    imax = max(i for i, _ in pts)
    jmax = max(j for _, j in pts)
    width = 2 * _MARGIN + LATTICE_UNIT * max(imax, 1)
    height = 2 * _MARGIN + LATTICE_UNIT * max(jmax, 1)

    def px(i: int | float, j: int | float) -> tuple[float, float]:
        return (_MARGIN + LATTICE_UNIT * i, height - _MARGIN - LATTICE_UNIT * j)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(imax + 1):
        for j in range(jmax + 1):
            x, y = px(i, j)
            parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.5" fill="#ccc"/>')

    verts = list(polygon.vertices)
    if len(verts) >= 2:
        coords = " ".join(
            f"{_fmt(px(i, j)[0])},{_fmt(px(i, j)[1])}" for i, j in verts + [verts[0]]
        )
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#999" stroke-width="1.5"/>'
        )

    try:
        edges = outer_edges(polygon)
    except PointPolygon:
        edges = []
    witness = cert.witness_edge if cert is not None and cert.witness_edge else None
    for edge in edges:
        if not edge.is_right:
            continue
        (x1, y1), (x2, y2) = px(*edge.start), px(*edge.end)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#4682b4" stroke-width="2.5"/>'
        )
    if witness is not None:
        (x1, y1), (x2, y2) = px(*witness.start), px(*witness.end)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#dc143c" stroke-width="4"/>'
        )
        mx, my = 0.5 * (x1 + x2) + 8, 0.5 * (y1 + y2)
        parts.append(
            f'<text x="{_fmt(mx)}" y="{_fmt(my)}" font-size="12" '
            f'font-family="monospace" fill="#dc143c">slope {witness.slope}</text>'
        )

    for i, j in sorted(support):
        x, y = px(i, j)
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.2" fill="#222"/>')
    parts.append("</svg>")
    return "\n".join(parts)


_LEVEL_COLORS = {
    SEGMENT_ARC: "#4682b4",
    "ContainedInB": "#e08020",
}


# ---------------------------------------------------------------------------
# The traced top border
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
            return max(1e5, 4.0 * x0)
    for _ in range(8):
        mid = math.sqrt(x_lo * x_hi)
        if _slice_max(p_star, f, mid) >= t_floor:
            x_lo = mid
        else:
            x_hi = mid
    return max(50.0, 1.3 * x_hi, 4.0 * x0)


def boundary_trace(region: TongueRegion, x_max: float | None = None) -> BranchTrace:
    """The region's top border f, traced from x0 to x_max for drawing.

    ``region.poly`` is already in first-quadrant coordinates, so its lowest
    positive branch is f itself.  An x_max of None takes the automatic
    horizon (``GridSpec``), found on a coarser probe trace to 16 x0.
    """
    x0 = float(region.x0)
    if x_max is None:
        _, probe = lowest_positive_branch(region.poly, TraceConfig(x0, 16 * x0, 1.1))
        f = boundary_interpolator(probe)
        x_max = _auto_horizon(region.poly, f, x0, _schedule_floor(region.profile))
    _, trace = lowest_positive_branch(region.poly, TraceConfig(x0, float(x_max), 1.02))
    return trace


def render_tongue_svg(
    region: TongueRegion,
    levels: LevelSetReport | None = None,
    grid: GridSpec | None = None,
) -> str:
    """Region plot: boundary branch, borders, pocket box, and level curves.

    The top border is traced to ``grid.x_max`` (``boundary_trace``).  The
    level curves come from a ``grid.nx`` x ``grid.ny`` raster (400 x 400
    by default); a level the raster cannot resolve is left out, with an
    SVG comment saying so.  The x axis switches to a log scale when the
    truncation is more than two decades past x0 (the geometry worth seeing
    is squeezed against both ends otherwise).
    """
    grid = grid or GridSpec(nx=400, ny=400)
    trace = boundary_trace(region, grid.x_max)
    x0 = float(region.x0)
    x_max = trace.samples[-1][0]
    y_top = region.profile.f_x0
    width, height = 640, 420
    m = 46
    log_x = x_max / max(x0, 1e-300) > 100

    def sx(x: float) -> float:
        if log_x:
            u = (math.log(x) - math.log(x0)) / (math.log(x_max) - math.log(x0))
        else:
            u = (x - x0) / (x_max - x0)
        return m + u * (width - 2 * m)

    def sy(y: float) -> float:
        return height - m - (y / y_top) * (height - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # level curves under everything else
    if levels is not None and levels.records:
        raster = LevelRaster(region.poly, region, trace, grid)
        for rec in sorted(levels.records, key=lambda r: r.t):
            try:
                polylines = [pts for pts, _ in raster.components(rec.t)]
            except ResolutionTooCoarse as exc:
                parts.append(f"<!-- level t={rec.t!r} not drawn: {exc} -->")
                continue
            if rec.classification == EMPTY and not polylines:
                continue
            color = "#d03030" if not rec.ok else _LEVEL_COLORS.get(
                rec.classification, "#808080"
            )
            for pts in polylines:
                if len(pts) < 2:
                    continue
                coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
                parts.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        if levels.pocket_bbox:
            bx0, bx1, by0, by1 = levels.pocket_bbox
            parts.append(
                f'<rect x="{_fmt(sx(bx0))}" y="{_fmt(sy(by1))}" '
                f'width="{_fmt(sx(bx1) - sx(bx0))}" height="{_fmt(sy(by0) - sy(by1))}" '
                f'fill="none" stroke="#e08020" stroke-width="1.2" stroke-dasharray="5 3"/>'
            )

    # boundary branch
    coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in trace.samples)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#2e8b57" stroke-width="2"/>'
    )
    # half-line border and the segment side
    parts.append(
        f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(0.0))}" x2="{_fmt(sx(x_max))}" '
        f'y2="{_fmt(sy(0.0))}" stroke="#222" stroke-width="2.5"/>'
    )
    parts.append(
        f'<line x1="{_fmt(sx(x0))}" y1="{_fmt(sy(0.0))}" x2="{_fmt(sx(x0))}" '
        f'y2="{_fmt(sy(y_top))}" stroke="#222" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_fmt(sx(x0) + 4)}" y="{_fmt(sy(y_top) + 14)}" font-size="12" '
        f'font-family="monospace" fill="#222">x0={_fmt(x0)}'
        f'{" (log x)" if log_x else ""}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Level curves for drawing (marching squares)
# ---------------------------------------------------------------------------

# Points closer to the traced branch than this are boundary at grid
# resolution: the interpolant is only trusted to ~1e-4 relative between
# trace samples, while the barrier keeps every scheduled arc at least
# t0/20 away, which is ~1/160 of the strip height near the segment side
# and a few grid rows everywhere else.
BOUNDARY_COLLAR = 1e-3


class ResolutionTooCoarse(RuntimeError):
    """A saddle cell whose centre lies on the level: its pairing is undecided."""


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


class LevelRaster:
    """Scalar field p on the raster over [x0, x_max] x [0, f(x0)].

    x_max is where the traced border ``trace`` ends; the raster is
    ``grid.nx`` x ``grid.ny``.  Drawing only: the level sets are decided
    exactly in ``tongue``.
    Extraction runs over the full rectangle; clipping to the region
    happens afterwards, per connected component.  A positive level never
    meets the boundary branch (p vanishes there), so whole components can
    be kept or dropped; the drop test carries a collar absorbing the
    interpolation error of the traced branch itself.
    """

    def __init__(self, p, region: TongueRegion, trace: BranchTrace, grid: GridSpec):
        self.x0 = float(region.x0)
        self.x_max = trace.samples[-1][0]
        self.f = boundary_interpolator(trace)
        self.xs = np.linspace(self.x0, self.x_max, grid.nx)
        self.ys = np.linspace(0.0, region.profile.f_x0, grid.ny)
        self.dx = self.xs[1] - self.xs[0]
        self.dy = self.ys[1] - self.ys[0]
        self.values = evaluate_on_grid(p, self.xs, self.ys)
        self.p = p

    def components(self, t: float):
        """(polyline, closed) for each piece of the level p = t in the strip."""
        comps = _walk_components(*_extract_level(self, t))
        return [(pts, closed) for _, pts, closed in _components_in_region(comps, self.f, self.dy)]


def _edge_key(i: int, j: int, edge: int):
    if edge == 0:
        return ("h", i, j)
    if edge == 2:
        return ("h", i, j + 1)
    if edge == 3:
        return ("v", i, j)
    return ("v", i + 1, j)


def _extract_level(field: LevelRaster, t: float):
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
