"""Newton polygons and the primitive-edge certificate.

The Newton polygon of a polynomial is the convex hull of its exponent
support.  Edges whose primitive outward normal ``(v1, v2)`` has ``v1 > 0``
or ``v2 > 0`` face the directions where a zero branch can escape to
infinity; the ones with ``v1 > 0`` ("right" outer edges) carry branches
that are eventually graphs y = f(x) over large x, with growth exponent
``slope = v2 / v1``.

The certificate checked here: if, after at most one swap of the axes, the
polygon has a right outer edge from (0, 1) to some (a, b) with b > 1 and
with no interior lattice points, then no polynomial q makes the Jacobian
determinant of (p, q) everywhere positive.  Sign changes of the axes never
move the support, so they are not searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .poly import (
    IDENTITY,
    SWAP,
    BivariatePolynomial,
    LatticePoint,
    Transform,
    apply_transform,
)

__all__ = [
    "ZeroPolynomial",
    "EmptySupport",
    "NotAnEdgeOfThisPolynomial",
    "NewtonPolygon",
    "OuterEdge",
    "CriterionCertificate",
    "support",
    "hull",
    "newton_polygon",
    "outer_edges",
    "right_outer_edges",
    "lattice_point_count",
    "corollary_certificate",
    "face_polynomial",
]


class ZeroPolynomial(ValueError):
    """Polygon operations reject the zero polynomial."""


class EmptySupport(ValueError):
    pass


class NotAnEdgeOfThisPolynomial(ValueError):
    pass


@dataclass(frozen=True)
class OuterEdge:
    """A polygon side with an escape-facing primitive outward normal.

    The normal (v1, v2) fixes the rest: the edge is right when v1 > 0, and
    only then has a ``slope``, v2/v1.
    """

    start: LatticePoint
    end: LatticePoint
    normal: tuple[int, int]

    @property
    def is_right(self) -> bool:
        return self.normal[0] > 0

    @property
    def slope(self) -> Fraction | None:
        return Fraction(self.normal[1], self.normal[0]) if self.is_right else None

    def endpoints(self) -> frozenset[LatticePoint]:
        return frozenset((self.start, self.end))


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex hull of a support set: CCW vertex cycle, strictly convex."""

    vertices: tuple[LatticePoint, ...]
    support: frozenset[LatticePoint]


@dataclass(frozen=True)
class CriterionCertificate:
    """The edge criterion's witness edge from (0, 1), or None; the rest is read off it."""

    transform_used: Transform
    witness_edge: OuterEdge | None

    @property
    def satisfied(self) -> bool:
        return self.witness_edge is not None

    @property
    def endpoints(self) -> tuple[LatticePoint, LatticePoint] | None:
        e = self.witness_edge
        return None if e is None else ((0, 1), e.end if e.start == (0, 1) else e.start)

    @property
    def primitive_check(self) -> int | None:
        ends = self.endpoints
        return None if ends is None else gcd(ends[1][0], ends[1][1] - 1)

    @property
    def theta(self) -> Fraction | None:
        return None if self.witness_edge is None else self.witness_edge.slope


def support(p: BivariatePolynomial) -> frozenset[LatticePoint]:
    if p.is_zero:
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    return p.support()


def _cross(o: LatticePoint, a: LatticePoint, b: LatticePoint) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points: Iterable[LatticePoint]) -> NewtonPolygon:
    """Monotone-chain convex hull; collinear interior points are dropped."""
    pts = sorted(set((int(i), int(j)) for i, j in points))
    if not pts:
        raise EmptySupport("no points to hull")
    if len(pts) == 1:
        return NewtonPolygon((pts[0],), frozenset(pts))
    lower: list[LatticePoint] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[LatticePoint] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    cycle = lower[:-1] + upper[:-1]
    if len(cycle) == 2 or all(
        _cross(pts[0], pts[-1], q) == 0 for q in pts
    ):
        extremes = (pts[0], pts[-1])
        ordered = tuple(sorted(extremes, key=lambda v: (v[1], v[0])))
        return NewtonPolygon(ordered, frozenset(points))
    start = min(range(len(cycle)), key=lambda k: (cycle[k][1], cycle[k][0]))
    cycle = cycle[start:] + cycle[:start]
    return NewtonPolygon(tuple(cycle), frozenset(points))


def newton_polygon(p: BivariatePolynomial) -> NewtonPolygon:
    return hull(support(p))


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def outer_edges(polygon: NewtonPolygon) -> list[OuterEdge]:
    """Sides whose primitive outward normal has v1 > 0 or v2 > 0.

    A one-point polygon has none.  A segment-degenerate polygon contributes
    a single edge; its recorded normal is the qualifying one, preferring
    v1 > 0 when both directions of the perpendicular qualify.
    """
    verts = polygon.vertices
    if len(verts) == 1:
        return []
    if len(verts) == 2:
        a, b = verts
        d = (b[0] - a[0], b[1] - a[1])
        n = _primitive((d[1], -d[0]))
        for cand in (n, (-n[0], -n[1])):
            if cand[0] > 0:
                return [OuterEdge(a, b, cand)]
        for cand in (n, (-n[0], -n[1])):
            if cand[1] > 0:
                return [OuterEdge(a, b, cand)]
        return []
    out = []
    for k, a in enumerate(verts):
        b = verts[(k + 1) % len(verts)]
        d = (b[0] - a[0], b[1] - a[1])
        n = _primitive((d[1], -d[0]))  # outward for a CCW cycle
        if n[0] > 0 or n[1] > 0:
            out.append(OuterEdge(a, b, n))
    return out


def right_outer_edges(polygon: NewtonPolygon) -> list[OuterEdge]:
    """Right outer edges, sorted by slope (ascending, all distinct)."""
    edges = [e for e in outer_edges(polygon) if e.is_right]
    edges.sort(key=lambda e: e.slope)
    return edges


def lattice_point_count(edge: OuterEdge) -> int:
    di = abs(edge.end[0] - edge.start[0])
    dj = abs(edge.end[1] - edge.start[1])
    if di == 0 and dj == 0:
        return 1
    return gcd(di, dj) + 1


def corollary_certificate(
    p: BivariatePolynomial, allow_swap: bool = True
) -> CriterionCertificate:
    """Search for a right outer edge from (0,1) up to a primitive (a,b), b > 1.

    The identity is tried before the swap, and the first qualifying edge
    wins, so the result is deterministic.  Axis sign changes never alter
    the support and are not tried.
    """
    transforms = (IDENTITY, SWAP) if allow_swap else (IDENTITY,)
    for t in transforms:
        for edge in right_outer_edges(newton_polygon(apply_transform(p, t))):
            ends = edge.endpoints()
            # with (0, 1) an end, the other end (a, b) has b > 1 when some end does
            if (0, 1) in ends and max(j for _, j in ends) > 1 and lattice_point_count(edge) == 2:
                return CriterionCertificate(t, edge)
    return CriterionCertificate(IDENTITY, None)


def face_polynomial(p: BivariatePolynomial, edge: OuterEdge) -> dict[int, Fraction]:
    """Coefficients, indexed by j, of the terms of p lying on the given edge.

    For the edge's normal (k, l) these are the terms maximizing k*i + l*j;
    substituting y = c * x^(l/k) makes their weighted sum
    phi(c) = sum a_ij c^j the leading coefficient of p along the curve.
    """
    if not edge.is_right:
        raise NotAnEdgeOfThisPolynomial("face polynomials need a right outer edge")
    k, l = edge.normal
    supp = support(p)
    if edge.start not in supp or edge.end not in supp:
        raise NotAnEdgeOfThisPolynomial("edge endpoints are not in the support")
    d = max(k * i + l * j for (i, j) in supp)
    for v in (edge.start, edge.end):
        if k * v[0] + l * v[1] != d:
            raise NotAnEdgeOfThisPolynomial("edge does not support the polygon")
    face = {
        j: p.coefficient((i, j))
        for (i, j) in supp
        if k * i + l * j == d
    }
    if len(face) < 2:
        raise NotAnEdgeOfThisPolynomial("an edge must carry at least two terms")
    return face
