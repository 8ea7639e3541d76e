"""Branches at infinity: candidate asymptotes and their traces.

A right outer edge with normal (k, l) contributes zero branches of the
shape y ~ c * x^theta with theta = l/k, where c is a nonzero real root of
the edge's face polynomial.  Root isolation is exact.  Odd-multiplicity
roots force a sign change of the face and always yield a branch; an even
one is probed by exact sign evaluation of p along the two curves bounding
its isolating interval, or beside an exactly isolated root, far out on the
x axis, and confirmed only when every probe straddles.

Confirmed asymptotes can be traced: a walk along x whose every sample is
the nearest double of a real root of the exact slice p(x, .), isolated by
the integer Descartes kernel of :mod:`jacmate.univariate` and rounded by
exact signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import tongue  # only lowest_positive_branch reads it: ``branch`` never executes it
from . import univariate as uni
from .poly import BivariatePolynomial, Transform, apply_transform
from .polygon import OuterEdge, corollary_certificate, face_polynomial

__all__ = [
    "NotRightOuterEdge",
    "BranchLost",
    "SignProbe",
    "BranchAsymptote",
    "TraceConfig",
    "BranchTrace",
    "PROBE_XS",
    "sign_probe",
    "branch_candidates",
    "trace_branch",
    "lowest_positive_branch",
    "trace_to_csv",
]

PROBE_XS = (1e2, 1e4, 1e6)

# Consecutive trace abscissae grow by this factor.
GROWTH_FACTOR = 1.05

CONFIRMED = "Confirmed"
INCONCLUSIVE = "Inconclusive"


class NotRightOuterEdge(ValueError):
    pass


class BranchLost(RuntimeError):
    pass


@dataclass(frozen=True)
class SignProbe:
    x_probe: float
    c_minus: float
    c_plus: float
    sign_minus: int
    sign_plus: int

    @property
    def straddles(self) -> bool:
        return self.sign_minus * self.sign_plus == -1


@dataclass(frozen=True)
class BranchAsymptote:
    """A face root c*, confirmed as a branch y ~ c* x^theta when every probe
    straddles: an odd root, across which the face changes sign, has none.
    c_star is the root's nearest double."""

    edge: OuterEdge
    root: uni.RealRoot
    probes: tuple[SignProbe, ...]

    @property
    def c_interval(self) -> tuple[Fraction, Fraction]:
        return (self.root.lo, self.root.hi)

    @cached_property
    def c_star(self) -> float:
        return float(self.root)

    @property
    def root_multiplicity(self) -> int:
        return self.root.multiplicity

    @property
    def theta(self) -> Fraction:
        return self.edge.slope

    @property
    def existence(self) -> str:
        return CONFIRMED if all(pr.straddles for pr in self.probes) else INCONCLUSIVE


@dataclass(frozen=True)
class TraceConfig:
    x_start: float = 10.0
    x_end: float = 1000.0

    def __post_init__(self):
        if not (self.x_start >= 1.0):
            raise ValueError("x_start must be at least 1")
        if not self.x_end >= self.x_start:
            raise ValueError("x_end must be at least x_start")


@dataclass(frozen=True)
class BranchTrace:
    samples: tuple[tuple[float, float], ...]
    theta: Fraction


def sign_probe(
    p: BivariatePolynomial,
    theta: Fraction,
    c_minus: Fraction | float,
    c_plus: Fraction | float,
    x_probe: float,
) -> SignProbe:
    """Exact signs of p on the curves y = c * x^theta at one large x.

    The probe abscissa is rounded to the nearest perfect k-th power
    (theta = l/k in lowest terms) so that both curve points are rational
    and the evaluation stays exact.
    """
    theta = Fraction(theta)
    k, l = theta.denominator, theta.numerator
    s = max(2, round(x_probe ** (1.0 / k)))
    x = Fraction(s) ** k
    signs = []
    for c in (c_minus, c_plus):
        value = p.evaluate(x, Fraction(c) * Fraction(s) ** l)
        signs.append(0 if value == 0 else (1 if value > 0 else -1))
    return SignProbe(
        x_probe=float(x),
        c_minus=float(c_minus),
        c_plus=float(c_plus),
        sign_minus=signs[0],
        sign_plus=signs[1],
    )


def branch_candidates(
    p: BivariatePolynomial, edge: OuterEdge
) -> list[BranchAsymptote]:
    """One asymptote per nonzero real root of the edge's face polynomial."""
    if not edge.is_right:
        raise NotRightOuterEdge(f"edge with normal {edge.normal} is not right outer")
    face = face_polynomial(p, edge)
    coeffs = [Fraction(0)] * (max(face) + 1)
    for j, c in face.items():
        coeffs[j] = c
    # strip the power of c dividing the face; its root c = 0 is not a branch
    low = next(k for k, c in enumerate(coeffs) if c != 0)
    reduced = coeffs[low:]
    out: list[BranchAsymptote] = []
    # 0 is no root here and isolation splits (-2^K, 2^K) there first: no interval straddles it
    for iv in uni.isolate_roots(reduced):
        if iv.multiplicity % 2 == 1:
            probes = ()  # the face changes sign across the root: no probe decides anything
        else:
            c_lo, c_hi = (iv.lo, iv.hi) if iv.lo != iv.hi else _curves_beside(reduced, iv.lo)
            probes = tuple(sign_probe(p, edge.slope, c_lo, c_hi, xp) for xp in PROBE_XS)
        out.append(BranchAsymptote(edge=edge, root=iv, probes=probes))
    return out


def _curves_beside(f: list[Fraction], c: Fraction) -> tuple[Fraction, Fraction]:
    """c -+ w around an exact root c of f, which is f's only root on [c - w, c + w],
    and w at most half the isolating width: probes on c itself may read p = 0."""
    w = uni.DEFAULT_WIDTH / 2
    while uni.count_roots(f, c - w, c + w) != 1 or not uni.ueval(f, c - w) * uni.ueval(f, c + w):
        w /= 2
    return c - w, c + w


def _sample_at(p: BivariatePolynomial, x: float, y_pred: float) -> float | None:
    """The nearest double of the root of p(x, .) nearest the predictor.

    The real roots of the exact slice p(x, .) in the window y_pred * (0.1,
    1.9) are isolated, with no width refinement, and each is rounded to its
    nearest double by exact signs (``float(RealRoot)``), which does not
    depend on its interval.  The double nearest y_pred, compared exactly,
    is the sample, the lower one on a tie.  None when the window holds
    no root, or x is infinite and there is no slice.  OverflowError at
    y_pred = 0, which c* x^theta and samples never are: the trace left the
    float range.
    """
    if math.isinf(x):
        return None
    target = Fraction(y_pred)
    if not target:
        raise OverflowError("the predictor underflowed to 0")
    h = p.restricted_to_x(Fraction(x))
    lo, hi = sorted((target / 10, target * 19 / 10))
    ys = [float(r) for r in uni.isolate_roots(h, lo, hi, hi - lo)]
    return min(ys, key=lambda y: (abs(Fraction(y) - target), y), default=None)


def trace_branch(
    p: BivariatePolynomial, asymptote: BranchAsymptote, cfg: TraceConfig
) -> BranchTrace:
    """Follow the zero branch with asymptote c* x^theta from x_end back to x_start.

    The raw asymptotic predictor is only reliable far out, so the walk locks
    onto the branch at x_end and steps back by continuation: the predictor
    at the next abscissa is y * (x_next / x)^theta.  Each sample y is the
    nearest double of the real root of the exact slice p(x, .) nearest the
    predictor (``_sample_at``).
    """
    if asymptote.existence != CONFIRMED:
        raise ValueError("only confirmed asymptotes can be traced")
    theta = float(asymptote.theta)
    xs = [cfg.x_start]
    while xs[-1] < cfg.x_end:
        xs.append(min(xs[-1] * GROWTH_FACTOR, cfg.x_end))
    solved: list[tuple[float, float]] = []
    y_pred = asymptote.c_star * xs[-1] ** theta
    for i in range(len(xs) - 1, -1, -1):
        x = xs[i]
        y = _sample_at(p, x, y_pred)
        if y is None:
            raise BranchLost(f"no root of p(x, .) near the predictor at x={x!r}")
        solved.append((x, y))
        if i:
            y_pred = y * (xs[i - 1] / x) ** theta
    return BranchTrace(samples=tuple(reversed(solved)), theta=asymptote.theta)


def lowest_positive_branch(
    p: BivariatePolynomial, cfg: TraceConfig | None = None
) -> tuple[Transform, BranchTrace]:
    """Trace the positive branch of the witness edge in ``region_orientation``'s coordinates.

    There the witness face has exactly one positive root, a simple one; it
    is the asymptote traced.
    """
    criterion = corollary_certificate(p)
    transform, _ = tongue.region_orientation(p, criterion)
    q = apply_transform(p, transform)
    (asym,) = [a for a in branch_candidates(q, criterion.witness_edge) if a.c_star > 0]
    return transform, trace_branch(q, asym, cfg or TraceConfig())


def trace_to_csv(trace: BranchTrace, p: BivariatePolynomial) -> str:
    """Rows of x, y and the residual |p(x, y)|, ready for plotting.

    The residual is exact at the float point, rounded once to a double
    (infinity past the double range): no float cancellation inflates it.
    """
    lines = ["x,y,residual"]
    for x, y in trace.samples:
        exact = abs(p.evaluate(x, y))
        try:
            residual = float(exact)
        except OverflowError:
            residual = math.inf
        lines.append(f"{x!r},{y!r},{residual!r}")
    return "\n".join(lines) + "\n"
