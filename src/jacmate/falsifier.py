"""Search for zeros of Jac(p, q) for candidate mates q.

A certified p admits no polynomial q making the Jacobian determinant
everywhere positive, so for any concrete q a zero of Jac(p, q) should be
out there.  The search scans expanding boxes with an exact Jacobian
polynomial evaluated on float grids, bisects along sign changes, and
falls back to damped descent on the squared Jacobian for tangential zeros
(such as Jac = y^2, which never changes sign).  Misses are reported as
honest minimum records, never silently dropped.

Every witness is revalidated by exact rational evaluation at the reported
point before it is accepted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import BivariatePolynomial, evaluate_on_grid, jacobian

__all__ = [
    "SearchConfig",
    "ZeroWitness",
    "MinRecord",
    "TrialOutcome",
    "TrialReport",
    "DegenerateSampler",
    "find_jacobian_zero",
    "random_trials",
    "EXACT_GRID_HIT",
    "SIGN_CHANGE_BISECTION",
    "LOCAL_MINIMIZATION",
]

EXACT_GRID_HIT = "ExactGridHit"
SIGN_CHANGE_BISECTION = "SignChangeBisection"
LOCAL_MINIMIZATION = "LocalMinimization"


class DegenerateSampler(RuntimeError):
    """Every resampled candidate produced an identically zero Jacobian."""


@dataclass(frozen=True)
class SearchConfig:
    initial_half_width: float = 4.0
    max_doublings: int = 10
    grid_per_axis: int = 256
    zero_tol: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if self.zero_tol <= 0:
            raise ValueError("zero_tol must be positive")
        if self.grid_per_axis < 16:
            raise ValueError("need at least 16 grid nodes per axis")


@dataclass(frozen=True)
class ZeroWitness:
    point: tuple[float, float]
    jac_value: float
    method: str
    jac_exact: float = 0.0  # |Jac| from exact rational evaluation at point


@dataclass(frozen=True)
class MinRecord:
    best_point: tuple[float, float]
    best_abs_jac: float
    boxes_searched: int


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    seed: int
    q_text: str
    found: bool
    witness: ZeroWitness | None
    min_record: MinRecord | None


@dataclass(frozen=True)
class TrialReport:
    outcomes: tuple[TrialOutcome, ...]
    witness_rate: float


def _exact_abs(J: BivariatePolynomial, x: float, y: float) -> float:
    val = J.evaluate(Fraction(x), Fraction(y))
    return abs(float(val))


def _accept(J, x: float, y: float, method: str, cfg: SearchConfig):
    """Candidate point -> witness, or None if exact revalidation disagrees."""
    approx = J.evaluate_approx(x, y)
    if not abs(approx) <= cfg.zero_tol:
        return None
    exact = _exact_abs(J, x, y)
    if exact > 10 * cfg.zero_tol:
        return None
    return ZeroWitness(point=(x, y), jac_value=approx, method=method, jac_exact=exact)


def _bisect_segment(J, x0, y0, x1, y1, cfg: SearchConfig):
    """Bisection along the segment between two opposite-sign grid nodes."""
    f0 = J.evaluate_approx(x0, y0)
    for _ in range(200):
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        fm = J.evaluate_approx(xm, ym)
        if fm == 0.0 or (abs(x1 - x0) < 1e-15 * (1 + abs(x0)) and abs(y1 - y0) < 1e-15 * (1 + abs(y0))):
            return _accept(J, xm, ym, SIGN_CHANGE_BISECTION, cfg)
        if (fm > 0) == (f0 > 0):
            x0, y0, f0 = xm, ym, fm
        else:
            x1, y1 = xm, ym
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return _accept(J, xm, ym, SIGN_CHANGE_BISECTION, cfg)


def _descend(J, Jx, Jy, x: float, y: float, cfg: SearchConfig):
    """Damped Gauss-Newton descent on Jac^2 from the flattest grid point."""
    for _ in range(300):
        g = J.evaluate_approx(x, y)
        if abs(g) <= cfg.zero_tol:
            return _accept(J, x, y, LOCAL_MINIMIZATION, cfg)
        gx, gy = Jx.evaluate_approx(x, y), Jy.evaluate_approx(x, y)
        denom = gx * gx + gy * gy
        if denom == 0.0 or not np.isfinite(denom):
            return None
        dx, dy = -g * gx / denom, -g * gy / denom
        step = 1.0
        for _ in range(40):
            xn, yn = x + step * dx, y + step * dy
            if abs(J.evaluate_approx(xn, yn)) < abs(g):
                x, y = xn, yn
                break
            step *= 0.5
        else:
            return None
    return None


def find_jacobian_zero(
    p: BivariatePolynomial, q: BivariatePolynomial, cfg: SearchConfig | None = None
) -> ZeroWitness | MinRecord:
    """Locate a point where Jac(p, q) vanishes, or report the best minimum.

    Expanding boxes [-w, w]^2 with w doubling; within each box, exact grid
    hits first, then sign-change bisection (rows before columns, row-major
    order), then descent.  Deterministic for fixed inputs and config.
    """
    cfg = cfg or SearchConfig()
    J = jacobian(p, q)
    if J.is_zero:
        return ZeroWitness((0.0, 0.0), 0.0, EXACT_GRID_HIT, 0.0)
    Jx = J.partial_derivative("x")
    Jy = J.partial_derivative("y")

    best_abs = np.inf
    best_point = (0.0, 0.0)
    boxes = 0
    w = cfg.initial_half_width
    for _ in range(cfg.max_doublings + 1):
        boxes += 1
        xs = np.linspace(-w, w, cfg.grid_per_axis)
        ys = np.linspace(-w, w, cfg.grid_per_axis)
        vals = evaluate_on_grid(J, xs, ys)
        finite = np.isfinite(vals)
        absvals = np.where(finite, np.abs(vals), np.inf)

        k = int(np.argmin(absvals))
        i, j = divmod(k, len(ys))
        if absvals[i, j] < best_abs:
            best_abs = float(absvals[i, j])
            best_point = (float(xs[i]), float(ys[j]))

        for i, j in np.argwhere(finite & (vals == 0.0)):
            x, y = float(xs[i]), float(ys[j])
            if J.evaluate(Fraction(x), Fraction(y)) == 0:
                return ZeroWitness((x, y), 0.0, EXACT_GRID_HIT, 0.0)
            hit = _accept(J, x, y, LOCAL_MINIMIZATION, cfg)
            if hit:
                return hit

        sgn = np.sign(vals)
        for i, j in np.argwhere(finite[:-1, :] & finite[1:, :] & (sgn[:-1, :] * sgn[1:, :] < 0)):
            hit = _bisect_segment(
                J, float(xs[i]), float(ys[j]), float(xs[i + 1]), float(ys[j]), cfg
            )
            if hit:
                return hit
        for i, j in np.argwhere(finite[:, :-1] & finite[:, 1:] & (sgn[:, :-1] * sgn[:, 1:] < 0)):
            hit = _bisect_segment(
                J, float(xs[i]), float(ys[j]), float(xs[i]), float(ys[j + 1]), cfg
            )
            if hit:
                return hit

        k = int(np.argmin(absvals))
        i, j = divmod(k, len(ys))
        if np.isfinite(absvals[i, j]):
            hit = _descend(J, Jx, Jy, float(xs[i]), float(ys[j]), cfg)
            if hit:
                return hit
        w *= 2

    return MinRecord(best_point=best_point, best_abs_jac=best_abs, boxes_searched=boxes)


# ---------------------------------------------------------------------------
# Random candidate mates
# ---------------------------------------------------------------------------


def _sample_mate(
    p: BivariatePolynomial, rng: random.Random, max_degree: int, coeff_bound: int
) -> BivariatePolynomial:
    if max_degree < 1 or coeff_bound < 1:
        raise DegenerateSampler(
            "the sample space holds no candidate with a y-dependent term"
        )
    for _ in range(10):
        coeffs = {}
        for i in range(max_degree + 1):
            for j in range(max_degree + 1 - i):
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    coeffs[(i, j)] = Fraction(c)
        if not any(j >= 1 for _, j in coeffs):
            i = rng.randint(0, max_degree - 1)
            j = rng.randint(1, max_degree - i)
            coeffs[(i, j)] = Fraction(rng.randint(1, coeff_bound) * rng.choice((-1, 1)))
        q = BivariatePolynomial(coeffs)
        if not jacobian(p, q).is_zero:
            return q
    raise DegenerateSampler(
        "10 consecutive samples gave an identically zero Jacobian"
    )


def random_trials(
    p: BivariatePolynomial,
    n: int,
    max_degree: int = 3,
    coeff_bound: int = 3,
    cfg: SearchConfig | None = None,
) -> TrialReport:
    """Run the zero search against n randomly sampled candidate mates.

    Candidates always carry a y-dependent term (a pure-x mate of a pure-x
    polynomial is degenerate).  Reproducible: trial k uses seed
    rng_seed + 1000003*k.
    """
    cfg = cfg or SearchConfig()
    outcomes = []
    hits = 0
    for k in range(n):
        seed = cfg.rng_seed + 1000003 * k
        q = _sample_mate(p, random.Random(seed), max_degree, coeff_bound)
        result = find_jacobian_zero(p, q, cfg)
        found = isinstance(result, ZeroWitness)
        hits += found
        outcomes.append(
            TrialOutcome(
                index=k,
                seed=seed,
                q_text=str(q),
                found=found,
                witness=result if found else None,
                min_record=None if found else result,
            )
        )
    rate = hits / n if n else 0.0
    return TrialReport(outcomes=tuple(outcomes), witness_rate=rate)

