"""Search for zeros of Jac(p, q) for candidate mates q.

A certified p admits no polynomial q making the Jacobian determinant
everywhere positive, so for any concrete q a zero of Jac(p, q) should be
out there.  The search runs in this order:

1. J = 0 identically: a zero at the origin.
2. Exact slices, before numpy is imported or any grid is built.  On each
   line x = x0 for x0 = 0, 1, -1, 2, -2, in turn, the integer numerators
   of J(x0, y) have the signs of J there.  Their signs are taken exactly at
   y = 0, +/-1, +/-2, +/-4, ... (:func:`univariate.probe_bracket`); a probe
   where J is 0 is an exact rational root, and the first neighbouring
   pair, outward from 0, with opposite signs is halved on dyadic rationals
   to the float spacing.  A pair that holds one root skips the halvings:
   their end, the root's neighbouring doubles, is read off exact signs
   near a float guess.  Its ends keep opposite exact signs, so by the
   intermediate value theorem J has a zero on {x0} x [lo, hi]: the witness
   carries that bracket as its proof.
3. Only if no slice decides, the miss proof, before numpy is imported or
   any grid is built.  Every witness is revalidated by exact rational
   evaluation at its point before it is accepted, which rejects every
   point where the exact |Jac| exceeds C, the least float above the bound
   10 * ZERO_TOL: float rounding is monotone, so such a value rounds to a
   float >= C.  If |Jac| > C is proved on all of R^2, no point can be
   accepted, and the search returns the proof, a :class:`NoRealZero`.
   The proof is exact.  Let s = sign Jac(0, 0), where |Jac(0, 0)| > C,
   F = s*Jac - C and n = deg_y F.
   - n = 0: F is a polynomial in x alone with no real root.
   - n >= 1: lc_y(F), Res_y(F, F_y) and F(0, .) have no real root.  Then
     for every real x the slice F(x, .) keeps its degree n and simple
     roots, so its real roots move continuously and can never appear, meet
     or escape: it has as many as at x = 0, none.
   Either way F keeps the sign it has at (0, 0), and F > 0 on R^2.  The
   proof is tried only when its predicted work is within a fixed budget.
4. Only if the proof is refused, the float search: it scans expanding
   boxes with the exact Jacobian polynomial evaluated on float grids,
   bisects along sign changes, and falls back to damped descent on the
   squared Jacobian for tangential zeros that no slice decides
   (J = 3(y - 1/3)^2 changes sign nowhere, and no probe lands on its
   root).  A descent takes at most DESCENT_STEPS steps, and gives up once
   its pace cannot reach ZERO_TOL in the steps left: when the steps since
   |Jac| last halved, times the halvings log2(|Jac| / ZERO_TOL) still to
   go, exceed them.  Until then it takes the steps of a descent that
   spends its budget, so it can only end earlier: any witness it returns
   is that descent's, and that descent's miss stays a miss.  On Pinchuk's
   pair (Jac > 0) the 11 descents make 2,402 float evaluations, where
   spending their budgets takes 25,906.  The float search's misses are reported as honest minimum
   records, never silently dropped: the point is the float grid's
   flattest node, and its |Jac| is evaluated there exactly.

A proof rules out every witness, so trying the slices first changes no
answer, and a search that a slice decides never pays for the proof.

The slices' work is bounded: probes stop at 2^64, past which no root is
sought, and a bracket ending at 0 is halved to 2^-117 at most, so a slice
takes at most 2 * 65 + 1 probes and 64 + 53 halvings, each one Horner pass
in integers.  Up to degree 52 it may also take one test for a single root,
which costs no more than the 52 halvings of a doubling pair, and at most
1 + ``univariate.NEIGHBOURS`` signs at doubles near a float guess; when
those decide, no halving runs.  At the parse caps J(x0, .) has degree
<= 511, where no such test runs; on such a row with 4,000-bit
coefficients a sign takes ~2 ms at a probe and ~5 ms in a halving (2-core
VM, Python 3.11), so the five slices take ~5 s at most.
A search that a slice or the proof decides never loads numpy: it is
imported by the float search, on its first call.

The boxes never change, so each box's axis and the powers axis**j that its
grids take are built once per process, on the first search that reaches
the box, and shared by every later search.  This pays only in a process
that runs more than one search: :func:`random_trials` (``certify
--falsify N``), or a caller that issues many searches in one process.  A
single ``jacmate falsify`` runs one search, whose grids take each power
once whether or not it is stored.  With d the largest degree in either
variable of a Jacobian searched, each box holds at most d + 1 powers of
2 KB: 11 x (d + 1) x 2 KB in all, about 11.5 MB at the parse caps, where
d <= 2 * 256 - 1.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import univariate as uni
from .poly import BivariatePolynomial, evaluate_on_grid, jacobian

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ZeroWitness",
    "MinRecord",
    "NoRealZero",
    "TrialOutcome",
    "TrialReport",
    "DegenerateSampler",
    "find_jacobian_zero",
    "random_trials",
    "MAX_TRIALS",
    "EXACT_GRID_HIT",
    "SIGN_CHANGE_BISECTION",
    "LOCAL_MINIMIZATION",
]

EXACT_GRID_HIT = "ExactGridHit"
SIGN_CHANGE_BISECTION = "SignChangeBisection"
LOCAL_MINIMIZATION = "LocalMinimization"

# The search scans boxes [-w, w]^2 from w = 4, doubled 10 times, on 256 grid
# nodes per axis; a witness needs |Jac| <= 1e-6 in floats.
INITIAL_HALF_WIDTH = 4.0
MAX_DOUBLINGS = 10
GRID_PER_AXIS = 256
ZERO_TOL = 1e-6

# A descent takes at most this many Gauss-Newton steps, each with a line
# search of at most 40 halvings.
DESCENT_STEPS = 300

# The exact slices tried before any grid, in this order, and the reach of
# their probes: roots with 2^-64 <= |y| < 2^64 (module docstring).
SLICE_XS = (0, 1, -1, 2, -2)
SLICE_EXPONENT = 64

# The miss proof: C, the least float above the acceptance bound 10 * ZERO_TOL,
# as an exact rational, and the most work the proof may predict before it is
# tried: an upper bound on the nodes that uni.resultant_y takes for
# Res_y(F, F_y), times its Sylvester size cubed, or the degree of an F in x
# alone.  That predictor modelled a determinant per node and is kept as a
# size cap: the remainder sequence takes Pinchuk's Jacobian, 415 * 23^3, in
# ~0.5 s on a 2-core VM (Python 3.11), but its Res_y has real roots, so a
# higher cap would only add a failed proof to its search.
_ABOVE_BOUND = Fraction(math.nextafter(10 * ZERO_TOL, math.inf))
PROOF_WORK = 100_000
PROOF_MAX_DEGREE = 48
# the polynomials that a proof with deg_y F >= 1 shows to have no real root
NO_ROOT_ON_ANY_SLICE = ("lc_y(F)", "F(0, y)", "Res_y(F, F_y)")

# Sampled candidate mates: total degree at most 3, integer coefficients in [-3, 3].
MATE_DEGREE = 3
MATE_COEFF_BOUND = 3

# The most trials random_trials runs: a trial that hits takes 0.4-1 ms on
# the fixtures (2-core VM, Python 3.11), and every outcome is kept.
MAX_TRIALS = 1000


class DegenerateSampler(RuntimeError):
    """Every resampled candidate produced an identically zero Jacobian."""


@dataclass(frozen=True)
class ZeroWitness:
    point: tuple[float, float]
    jac_value: float
    method: str
    jac_exact: float = 0.0  # |Jac| from exact rational evaluation at point
    # a slice witness's proof: Jac(point[0], y) has a root with lo <= y <= hi,
    # exact rationals; None for the grid's and the descent's witnesses
    bracket: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True)
class MinRecord:
    best_point: tuple[float, float]
    best_abs_jac: float

    boxes_searched = MAX_DOUBLINGS + 1  # a grid miss searches every box


@dataclass(frozen=True)
class NoRealZero:
    """The miss proof (module docstring): sign * Jac - bound > 0 on R^2."""

    sign: int  # s = sign Jac(0, 0), 1 or -1
    # the polynomials shown to have no real root: ("F",) when deg_y F = 0,
    # else NO_ROOT_ON_ANY_SLICE
    root_free: tuple[str, ...]

    bound = _ABOVE_BOUND  # C, exact
    boxes_searched = 0  # a proved miss builds no grid


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    seed: int
    q_text: str
    result: ZeroWitness | MinRecord | NoRealZero

    @property
    def found(self) -> bool:
        return isinstance(self.result, ZeroWitness)

    @property
    def witness(self) -> ZeroWitness | None:
        return self.result if self.found else None

    @property
    def min_record(self) -> MinRecord | None:
        return self.result if isinstance(self.result, MinRecord) else None


@dataclass(frozen=True)
class TrialReport:
    outcomes: tuple[TrialOutcome, ...]

    @property
    def witness_rate(self) -> float:
        n = len(self.outcomes)
        return sum(o.found for o in self.outcomes) / n if n else 0.0


def _exact_abs(J: BivariatePolynomial, x: float, y: float) -> float:
    return abs(float(J.evaluate(x, y)))


def _row_value(row: list[int], den: int, y: float) -> tuple[int, int]:
    """row(y) / den as (numerator, positive denominator), not reduced.

    With ``row`` = ``J.integer_row(x0)`` and den = ``J.denominator``, this is
    J(x0, y) exactly: the homogenized Horner sum of row_j * n^j * d^(D-j)
    for y = n/d, over den * d^D.
    """
    n, d = y.as_integer_ratio()
    acc, scale = 0, 1
    for a in reversed(row):
        acc, scale = acc * n + a * scale, scale * d
    return acc * d, scale * den


def _accept(J, x: float, y: float, approx: float, method: str, bracket=None, row=None):
    """Candidate point -> witness, or None if exact revalidation disagrees.

    ``approx`` is ``J.evaluate_approx(x, y)``, passed in by the caller, which
    has mostly just computed it.  A slice's caller also passes its integer
    row (see :func:`_row_value`), from which the exact value is read: the
    same rational as ``J.evaluate(x, y)``, so the same rounded |Jac|.
    """
    if not abs(approx) <= ZERO_TOL:
        return None
    if row is None:
        exact = _exact_abs(J, x, y)
    else:  # int true division rounds the rational once, as float(Fraction)
        num, den = _row_value(row, J.denominator, y)
        exact = abs(num) / den
    if exact > 10 * ZERO_TOL:
        return None
    return ZeroWitness((x, y), approx, method, exact, bracket)


def _bisect_segment(J, x0, y0, x1, y1):
    """Bisection along the segment between two opposite-sign grid nodes."""
    f0 = J.evaluate_approx(x0, y0)
    for _ in range(200):
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        fm = J.evaluate_approx(xm, ym)
        if fm == 0.0 or (abs(x1 - x0) < 1e-15 * (1 + abs(x0)) and abs(y1 - y0) < 1e-15 * (1 + abs(y0))):
            return _accept(J, xm, ym, fm, SIGN_CHANGE_BISECTION)
        if (fm > 0) == (f0 > 0):
            x0, y0, f0 = xm, ym, fm
        else:
            x1, y1 = xm, ym
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return _accept(J, xm, ym, J.evaluate_approx(xm, ym), SIGN_CHANGE_BISECTION)


def _descend(J, Jx, Jy, x: float, y: float):
    """Damped Gauss-Newton descent on Jac^2 from the flattest grid point.

    g is Jac at the current point: the line search's value where it moves.
    The descent gives up, before the step budget is spent, once the steps
    since |g| last halved, times the halvings log2(|g| / ZERO_TOL) still
    needed, exceed the steps left: at that pace it cannot reach ZERO_TOL.
    The rule only returns None, and never moves the point, so a descent
    that goes on is step for step the one without it: a witness it returns
    is the full descent's, and a point where the full descent misses
    stays a miss.
    """
    g = J.evaluate_approx(x, y)
    halved_at, halved_to = 0, abs(g)  # the step where |g| last halved, and to what
    for step in range(DESCENT_STEPS):
        if abs(g) <= ZERO_TOL:
            return _accept(J, x, y, g, LOCAL_MINIMIZATION)
        if abs(g) <= halved_to / 2:
            halved_at, halved_to = step, abs(g)
        elif (step - halved_at) * math.log2(abs(g) / ZERO_TOL) > DESCENT_STEPS - step:
            return None
        gx, gy = Jx.evaluate_approx(x, y), Jy.evaluate_approx(x, y)
        denom = gx * gx + gy * gy
        if denom == 0.0 or not math.isfinite(denom):
            return None
        dx, dy = -g * gx / denom, -g * gy / denom
        step = 1.0
        for _ in range(40):
            xn, yn = x + step * dx, y + step * dy
            gn = J.evaluate_approx(xn, yn)
            if abs(gn) < abs(g):
                x, y, g = xn, yn, gn
                break
            step *= 0.5
        else:
            return None
    return None


def _stays_above_bound(J: BivariatePolynomial) -> NoRealZero | None:
    """The proof that |J| > C at every real point (module docstring), or None.

    None means unproved.  It is refused unproved, before any resultant,
    when the predicted work exceeds PROOF_WORK, a kept size cap: (n - 1) *
    deg_x F + n * deg_x F_y + 1, the most nodes
    :func:`univariate.resultant_y` takes for Res_y(F, F_y), times the cube
    of its Sylvester size, or for n = 0 a degree over PROOF_MAX_DEGREE.
    Every polynomial shown root-free is read as integers: lc_y(F) and
    F(0, .) as rows of F's numerators, and Res_y from the integer rows of F
    and F_y.
    """
    at_origin = J.evaluate(0, 0)
    if abs(at_origin) <= _ABOVE_BOUND:
        return None
    sign = 1 if at_origin > 0 else -1
    F = (J if sign > 0 else -J) - _ABOVE_BOUND
    n, deg_x = F.degree_y(), F.degree_x()
    if n == 0:
        if deg_x > PROOF_MAX_DEGREE or uni.count_roots(F.integer_coefficient_y(0)):
            return None
        return NoRealZero(sign, ("F",))
    Fy = F.partial_derivative("y")
    # at least the nodes uni.resultant_y takes: it may take fewer
    nodes = (n - 1) * deg_x + n * Fy.degree_x() + 1
    if nodes * (2 * n - 1) ** 3 > PROOF_WORK:
        return None
    # a root of lc_y(F) is one of Res_y(F, F_y) too, found here more cheaply
    if uni.count_roots(F.integer_coefficient_y(n)) or uni.count_roots(F.integer_row(0)):
        return None
    r = uni.resultant_y(F, Fy)
    if not r or uni.count_roots(r):
        return None
    return NoRealZero(sign, NO_ROOT_ON_ANY_SLICE)


def find_jacobian_zero(
    p: BivariatePolynomial, q: BivariatePolynomial
) -> ZeroWitness | MinRecord | NoRealZero:
    """Locate a point where Jac(p, q) vanishes, prove there is none, or
    report the best minimum.

    First the exact slices x = 0, 1, -1, 2, -2: a slice witness carries a
    bracket that proves a zero.  Then the miss proof: a
    :class:`NoRealZero` proves that no point passes the exact
    revalidation.  Only if both fail, the float search: expanding boxes
    [-w, w]^2 with w doubling; within each box, exact grid hits first, then
    sign-change bisection (rows before columns, row-major order), then
    descent.  Deterministic: the result depends on p and q only.
    """
    return _search(jacobian(p, q))


def _search(J: BivariatePolynomial) -> ZeroWitness | MinRecord | NoRealZero:
    """:func:`find_jacobian_zero` given the Jacobian ``J`` of the pair."""
    if J.is_zero:
        return ZeroWitness((0.0, 0.0), 0.0, EXACT_GRID_HIT, 0.0)
    return _slice_witness(J) or _stays_above_bound(J) or _grid_search(J)


def _slice_witness(J: BivariatePolynomial) -> ZeroWitness | None:
    """A zero of J proved on one of the lines x = SLICE_XS, or None.

    On each line in turn, :func:`univariate.probe_bracket` decides a root
    of J(x0, .) from exact signs; its point must then pass :func:`_accept`
    like any other, at the float nearest the bracket's midpoint, with the
    exact value read off the line's integer row.  An exact
    rational root is an ``EXACT_GRID_HIT``, a bracket a
    ``SIGN_CHANGE_BISECTION``.
    """
    for x0 in SLICE_XS:
        row = J.integer_row(x0)
        bracket = uni.probe_bracket(row, SLICE_EXPONENT)
        if bracket is None:
            continue
        lo, hi = bracket
        x, y = float(x0), float((lo + hi) / 2)
        method = EXACT_GRID_HIT if lo == hi else SIGN_CHANGE_BISECTION
        hit = _accept(J, x, y, J.evaluate_approx(x, y), method, bracket, row)
        if hit:
            return hit
    return None


def _grid_search(J: BivariatePolynomial) -> ZeroWitness | MinRecord:
    """The float search over the boxes, for a nonzero J that no slice
    decides and :func:`_stays_above_bound` does not prove free of zeros.

    Every box it builds can still return a witness.  A miss searches all
    MAX_DOUBLINGS + 1 boxes.  numpy is imported here, on the first search
    that reaches the grids, so that the exact commands and the searches
    decided exactly never load it.
    """
    import numpy as np

    Jx, Jy = J.partial_derivative("x"), J.partial_derivative("y")

    best_abs = np.inf
    best_point = (0.0, 0.0)
    for k in range(MAX_DOUBLINGS + 1):
        xs, powers = _box(k)
        ys = xs
        vals = evaluate_on_grid(J, xs, ys, powers)
        # |Jac| overwrites the grid once its sign bits are kept: one 256²
        # float array per box, not two
        neg = np.signbit(vals)
        absvals = np.abs(vals, out=vals)
        # the largest |value| is finite only when every value is (NaN
        # propagates); then finite stays None, no mask to build or apply
        finite = None if np.isfinite(absvals.max()) else np.isfinite(absvals)
        if finite is not None:
            absvals = np.where(finite, absvals, np.inf)

        i_min, j_min = divmod(int(np.argmin(absvals)), len(ys))
        least = absvals[i_min, j_min]
        flattest = (float(xs[i_min]), float(ys[j_min]))
        if least < best_abs:
            best_abs = float(least)
            best_point = flattest

        if least == 0.0:  # some finite node is an exact float zero
            for i, j in np.argwhere(absvals == 0.0):
                x, y = float(xs[i]), float(ys[j])
                if J.evaluate(x, y) == 0:
                    return ZeroWitness((x, y), 0.0, EXACT_GRID_HIT, 0.0)
                hit = _accept(J, x, y, J.evaluate_approx(x, y), LOCAL_MINIMIZATION)
                if hit:
                    return hit

        # a sign change joins two finite nonzero nodes whose sign bits differ;
        # with no zero and no non-finite node there is no mask to apply
        signed = None
        if finite is not None or least == 0.0:
            signed = np.isfinite(absvals) & (absvals != 0.0)
        for i, j in _sign_changes(neg, signed, 0):
            hit = _bisect_segment(J, float(xs[i]), float(ys[j]), float(xs[i + 1]), float(ys[j]))
            if hit:
                return hit
        for i, j in _sign_changes(neg, signed, 1):
            hit = _bisect_segment(J, float(xs[i]), float(ys[j]), float(xs[i]), float(ys[j + 1]))
            if hit:
                return hit

        if np.isfinite(least):
            hit = _descend(J, Jx, Jy, *flattest)
            if hit:
                return hit

    # the float argmin picks the point; its |Jac| is read exactly, so grid
    # rounding (even a cancellation to 0.0 where Jac >= 1) cannot reach it
    return MinRecord(best_point, _exact_abs(J, *best_point))


@functools.cache
def _box(k: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Box k's axis, np.linspace(-w, w, GRID_PER_AXIS) at w = 4 * 2^k, and its
    memo j -> axis**j for :func:`evaluate_on_grid`: built read-only on first
    use and shared by every later search (module docstring)."""
    import numpy as np

    w = INITIAL_HALF_WIDTH * 2**k
    axis = np.linspace(-w, w, GRID_PER_AXIS)
    axis.flags.writeable = False
    return axis, {}


def _sign_changes(neg: np.ndarray, signed: np.ndarray | None, axis: int):
    """Yield grid nodes (i, j), row-major, whose sign bit ``neg`` differs from
    that of the next neighbour along ``axis``, both nodes ``signed``.

    ``signed`` marks the finite nonzero nodes, or is None when every node is.
    """
    head, tail = _neighbours(neg, axis)
    change = head != tail
    if signed is not None:
        s_head, s_tail = _neighbours(signed, axis)
        change &= s_head & s_tail
    width = change.shape[1]
    for k in change.ravel().nonzero()[0].tolist():
        yield divmod(k, width)


def _neighbours(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Each node and its next neighbour along ``axis``, as two views."""
    return (a[:-1, :], a[1:, :]) if axis == 0 else (a[:, :-1], a[:, 1:])


# ---------------------------------------------------------------------------
# Random candidate mates
# ---------------------------------------------------------------------------


def _sample_mate(
    p: BivariatePolynomial, rng: random.Random
) -> tuple[BivariatePolynomial, BivariatePolynomial]:
    """A candidate mate q and Jac(p, q), which is not identically zero."""
    for _ in range(10):
        coeffs = {}
        for i in range(MATE_DEGREE + 1):
            for j in range(MATE_DEGREE + 1 - i):
                c = rng.randint(-MATE_COEFF_BOUND, MATE_COEFF_BOUND)
                if c:
                    coeffs[(i, j)] = c
        if not any(j >= 1 for _, j in coeffs):
            i = rng.randint(0, MATE_DEGREE - 1)
            j = rng.randint(1, MATE_DEGREE - i)
            coeffs[(i, j)] = rng.randint(1, MATE_COEFF_BOUND) * rng.choice((-1, 1))
        q = BivariatePolynomial(coeffs)
        J = jacobian(p, q)
        if not J.is_zero:
            return q, J
    raise DegenerateSampler(
        "10 consecutive samples gave an identically zero Jacobian"
    )


def random_trials(p: BivariatePolynomial, n: int, seed: int = 0) -> TrialReport:
    """Run the zero search against n randomly sampled candidate mates.

    Candidates always carry a y-dependent term (a pure-x mate of a pure-x
    polynomial is degenerate).  Reproducible: trial k samples its mate with
    seed + 1000003*k.  Raises ValueError for n < 0 or n > MAX_TRIALS.
    """
    if n < 0:
        raise ValueError(f"the trial count must be at least 0, got {n}")
    if n > MAX_TRIALS:
        raise ValueError(f"the trial count exceeds the cap of {MAX_TRIALS}, got {n}")
    outcomes = []
    for k in range(n):
        trial_seed = seed + 1000003 * k
        q, J = _sample_mate(p, random.Random(trial_seed))
        outcomes.append(TrialOutcome(k, trial_seed, str(q), _search(J)))
    return TrialReport(tuple(outcomes))
