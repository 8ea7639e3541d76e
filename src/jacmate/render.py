"""SVG figures: Newton polygons with highlighted edges, and tongue regions.

Pure string assembly, deterministic byte-for-byte for fixed inputs.  The
tongue figure reads the region on ``SLICE_LINES`` rational vertical lines:
its top border and its level curves are roots of p(x_k, .) isolated
exactly (Collins' cylindrical decomposition, as in ``tongue``), and drawn
as floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from . import tongue
from . import univariate as uni
from .poly import BivariatePolynomial
from .polygon import (
    CriterionCertificate,
    NewtonPolygon,
    outer_edges,
)

if TYPE_CHECKING:
    from .tongue import LevelSetReport, TongueRegion

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

    witness = cert.witness_edge if cert is not None and cert.witness_edge else None
    for edge in outer_edges(polygon):
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


# Vertical lines the tongue figure reads, about 4 px apart across its plot.
SLICE_LINES = 128


class _Slices:
    """p on rational vertical lines x = xq, its roots isolated to ``width``.

    On such a line the top border f(xq) is the first positive root of
    p(xq, .), and the level t > 0 meets the line at the roots of
    p(xq, .) - t in (0, f(xq)).  Past f(xq), up to the end of its isolating
    interval, p(xq, .) < 0 < t: the level's roots are taken up to that end.
    """

    def __init__(self, p: BivariatePolynomial, width: Fraction):
        self.p, self.width = p, width
        self._tops: dict[Fraction, tuple | None] = {}

    def top(self, xq: Fraction):
        """p(xq, .) and the interval of f(xq), or None: no positive root."""
        if xq not in self._tops:
            hq = self.p.restricted_to_x(xq)
            roots = uni.isolate_roots(hq, Fraction(0), width=self.width)
            self._tops[xq] = (hq, roots[0]) if roots else None
        return self._tops[xq]

    def level(self, xq: Fraction, t: Fraction) -> list[float]:
        """Heights of the level t on the line, bottom up, at interval midpoints.

        A root of even multiplicity is a fold touching the line, listed
        twice: once per strand meeting there.
        """
        hq, top = self.top(xq)
        ys: list[float] = []
        for iv in uni.isolate_roots(tongue._shifted_by(hq, t), Fraction(0), top.hi, self.width):
            ys += [float(iv.midpoint)] * (2 - iv.multiplicity % 2)
        return ys


def _slices(region: TongueRegion) -> _Slices:
    """The region's slices, each root drawn at its interval's midpoint.

    The width is 2^(e - 17), e the binary exponent of f(x0): at most
    f(x0) / 2^16, far below a pixel.
    """
    return _Slices(region.poly, Fraction(2) ** (math.frexp(region.profile.f_x0)[1] - 17))


def _lines(x0: Fraction, x_max: Fraction, log_x: bool) -> list[Fraction]:
    """SLICE_LINES abscissae, evenly spaced on the figure's x scale."""
    lo, hi = float(x0), float(x_max)
    steps = (k / (SLICE_LINES - 1) for k in range(1, SLICE_LINES - 1))
    inner = {Fraction(lo * (hi / lo) ** u if log_x else lo + (hi - lo) * u) for u in steps}
    return [x0, *sorted(x for x in inner if x0 < x < x_max), x_max]


def _horizon(slices: _Slices, x0: Fraction, drawn) -> Fraction:
    """The default right edge of the figure, never below 50.

    The least x0 * 2^k, k >= 1, whose line the smallest positive drawn
    level misses: its arcs end on the segment side, so its x-projection is
    an interval from x0.  With no level drawn, max(50, 4 x0).
    """
    if not drawn:
        return max(Fraction(50), 4 * x0)
    t = drawn[0][1]
    x = 2 * x0
    while x < 50 or (slices.top(x) is not None and slices.level(x, t)):
        x *= 2
    return x


def _close_folds(ys: list[float], keep: int):
    """Reduce the points ys to ``keep`` strands: (kept indices, fold chords).

    The adjacent pair with the smallest gap closes a fold until ``keep``
    remain.  Both counts are even, double roots listed twice: p - t has the
    sign of -t at y = 0 and above the top.
    """
    rest = list(range(len(ys)))
    chords = []
    while len(rest) > keep:
        i = min(range(len(rest) - 1), key=lambda i: ys[rest[i + 1]] - ys[rest[i]])
        chords.append((rest[i], rest[i + 1]))
        del rest[i : i + 2]
    return rest, chords


def _level_polylines(slices: _Slices, lines: list[Fraction], t: Fraction):
    """The level t as polylines of (x, y) floats, joined line to line.

    Between two lines with as many points, the points join in order; where
    the count changes, ``_close_folds`` closes (or opens) folds on the line
    with more points.  The level stops at its first empty line: its arcs
    end on the segment side, so its x-projection, an interval from x0,
    does not reach past it.  Paths come first, each from its end with the
    least (line, height) index.
    """
    columns = []
    for xq in lines:
        columns.append(slices.level(xq, t))
        if not columns[-1]:
            break
    adj: dict[tuple[int, int], list] = {
        (k, i): [] for k, ys in enumerate(columns) for i in range(len(ys))
    }

    def join(u, v):
        adj[u].append(v)
        adj[v].append(u)

    for k in range(len(columns) - 1):
        more, fewer = (k, k + 1) if len(columns[k]) >= len(columns[k + 1]) else (k + 1, k)
        rest, chords = _close_folds(columns[more], len(columns[fewer]))
        for i, j in chords:
            join((more, i), (more, j))
        for i, j in enumerate(rest):
            join((fewer, i), (more, j))

    polylines = []
    for u in sorted(adj, key=lambda u: (len(adj[u]) != 1, u)):
        chain = [u]
        while adj[chain[-1]]:
            v = adj[chain[-1]].pop()
            adj[v].remove(chain[-1])
            chain.append(v)
        pts = [(float(lines[k]), columns[k][i]) for k, i in chain]
        # a fold touching a line is one point
        pts = [q for q, prev in zip(pts, [None] + pts) if q != prev]
        if len(pts) > 1:
            polylines.append(pts)
    return polylines


def render_tongue_svg(
    region: TongueRegion,
    levels: LevelSetReport | None = None,
    x_max: float | None = None,
) -> str:
    """Region plot: top border, borders, and level curves.

    Everything is read off ``SLICE_LINES`` rational lines from x0 to x_max
    (``_Slices``); an x_max of None takes ``_horizon``'s.  The top
    border ends at the first line where p(x, .) has no positive root.  Each
    positive level that has components is one ``<g data-t>`` group of
    polylines.  The x axis switches to a log scale when x_max is
    more than two decades past x0 (the geometry worth seeing is squeezed
    against both ends otherwise).
    """
    x0 = region.x0
    slices = _slices(region)
    # records carry t as a float: draw the exact scheduled level behind it
    exact = {float(t): t for t in tongue.default_schedule(region.profile.t0)}
    records = sorted(levels.records, key=lambda r: r.t) if levels is not None else []
    drawn = [(rec, exact.get(rec.t, Fraction(rec.t))) for rec in records if rec.t > 0]
    if x_max is None:
        right = _horizon(slices, x0, drawn)
    elif x0 < x_max < math.inf:
        right = Fraction(x_max)
    else:
        raise ValueError(f"x_max must be finite and exceed x0 = {x0}")
    log_x = right / x0 > 100
    lines = _lines(x0, right, log_x)
    border = []
    for xq in lines:
        top = slices.top(xq)
        if top is None:
            break
        border.append((float(xq), float(top[1].midpoint)))
    lines = lines[: len(border)]

    x_lo, x_hi = float(x0), float(right)
    y_top = region.profile.f_x0
    width, height = 640, 420
    m = 46

    def sx(x: float) -> float:
        if log_x:
            u = (math.log(x) - math.log(x_lo)) / (math.log(x_hi) - math.log(x_lo))
        else:
            u = (x - x_lo) / (x_hi - x_lo)
        return m + u * (width - 2 * m)

    def sy(y: float) -> float:
        return height - m - (y / y_top) * (height - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]

    # level curves under everything else
    colors = {tongue.SEGMENT_ARC: "#4682b4", tongue.CONTAINED_IN_B: "#e08020"}
    for rec, t in drawn:
        if not rec.component_count:
            continue
        color = colors[rec.classification]
        parts.append(f'<g data-t="{rec.t!r}" fill="none" stroke="{color}" stroke-width="1">')
        for pts in _level_polylines(slices, lines, t):
            coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{coords}"/>')
        parts.append("</g>")

    # top border
    coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in border)
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#2e8b57" stroke-width="2"/>'
    )
    # half-line border and the segment side
    parts.append(
        f'<line x1="{_fmt(sx(x_lo))}" y1="{_fmt(sy(0.0))}" x2="{_fmt(sx(x_hi))}" '
        f'y2="{_fmt(sy(0.0))}" stroke="#222" stroke-width="2.5"/>'
    )
    parts.append(
        f'<line x1="{_fmt(sx(x_lo))}" y1="{_fmt(sy(0.0))}" x2="{_fmt(sx(x_lo))}" '
        f'y2="{_fmt(sy(y_top))}" stroke="#222" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{_fmt(sx(x_lo) + 4)}" y="{_fmt(sy(y_top) + 14)}" font-size="12" '
        f'font-family="monospace" fill="#222">x0={_fmt(x_lo)}'
        f'{" (log x)" if log_x else ""}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
