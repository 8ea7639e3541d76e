"""SVG figures: Newton polygons with highlighted edges, and tongue regions.

Pure string assembly, deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

from .polygon import (
    CriterionCertificate,
    NewtonPolygon,
    PointPolygon,
    outer_edges,
)
from .tongue import (
    GridSpec,
    LevelSetReport,
    TongueRegion,
    EMPTY,
    SEGMENT_ARC,
    extract_polylines,
)

__all__ = ["render_polygon_svg", "render_tongue_svg"]

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


def render_tongue_svg(
    region: TongueRegion, levels: LevelSetReport | None = None
) -> str:
    """Region plot: boundary branch, borders, pocket box, and level curves.

    The x axis switches to a log scale when the truncation is more than
    two decades past x0 (the geometry worth seeing is squeezed against
    both ends otherwise).
    """
    trace = region.boundary_trace
    x0 = float(region.x0)
    x_max = trace.samples[-1][0]
    y_top = region.profile.f_x0
    width, height = 640, 420
    m = 46
    log_x = x_max / max(x0, 1e-300) > 100

    import math

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
        grid = GridSpec(nx=400, ny=400, x_max=x_max)
        by_t = {rec.t: rec for rec in levels.records}
        for t, polylines in extract_polylines(region.poly, region, list(by_t), grid):
            rec = by_t[t]
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
