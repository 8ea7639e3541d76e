"""Exact univariate polynomial utilities over the rationals.

Polynomials are lists of ``Fraction`` coefficients in ascending order of
power; the zero polynomial is the empty list.  Everything here is exact:
root counting uses Sturm chains, multiplicities come from a square-free
decomposition, and isolating intervals have rational endpoints.  Floats
appear only in the final refinement step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Coeffs = list[Fraction]

__all__ = [
    "RootInterval",
    "normalize",
    "degree",
    "ueval",
    "ueval_float",
    "derivative",
    "poly_divmod",
    "poly_gcd",
    "squarefree_decomposition",
    "sturm_chain",
    "count_roots",
    "root_bound",
    "isolate_roots",
    "float_root",
]

DEFAULT_WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class RootInterval:
    """One real root: lo <= root <= hi, with its multiplicity.

    lo == hi marks an exact rational root; otherwise the endpoints are not
    roots and the open interval contains exactly one root.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def normalize(c: Coeffs) -> Coeffs:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(c: Coeffs) -> int:
    return len(c) - 1


def ueval(c: Coeffs, x: Fraction | int) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def ueval_float(c: Coeffs, x: float) -> float:
    acc = 0.0
    for a in reversed(c):
        acc = acc * x + float(a)
    return acc


def derivative(c: Coeffs) -> Coeffs:
    return [a * k for k, a in enumerate(c)][1:]


def poly_divmod(num: Coeffs, den: Coeffs) -> tuple[Coeffs, Coeffs]:
    num, den = normalize(num), normalize(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    dlead = den[-1]
    while len(rem) >= len(den) and normalize(rem):
        shift = len(rem) - len(den)
        factor = rem[-1] / dlead
        quot[shift] = factor
        for k, a in enumerate(den):
            rem[shift + k] -= factor * a
        rem = normalize(rem)
    return normalize(quot), normalize(rem)


def _monic(c: Coeffs) -> Coeffs:
    c = normalize(c)
    if not c:
        return c
    lead = c[-1]
    return [a / lead for a in c]


def poly_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    a, b = normalize(a), normalize(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return _monic(a)


def squarefree_decomposition(f: Coeffs) -> list[tuple[Coeffs, int]]:
    """Yun decomposition: pairwise coprime squarefree factors with multiplicity.

    The constant leading factor is dropped, so the result describes the roots
    of f, not f itself up to units.
    """
    f = _monic(f)
    if degree(f) < 1:
        return []
    df = derivative(f)
    a = poly_gcd(f, df)
    b, _ = poly_divmod(f, a)
    c, _ = poly_divmod(df, a)
    d = _sub(c, derivative(b))
    out: list[tuple[Coeffs, int]] = []
    m = 1
    while degree(b) >= 1:
        g = poly_gcd(b, d)
        if degree(g) >= 1:
            out.append((g, m))
        b, _ = poly_divmod(b, g)
        c, _ = poly_divmod(d, g)
        d = _sub(c, derivative(b))
        m += 1
    return out


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return normalize([x - y for x, y in zip(a, b)])


def sturm_chain(f: Coeffs) -> list[Coeffs]:
    f = normalize(f)
    chain = [f, normalize(derivative(f))]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-a for a in r])
    return [c for c in chain if c]


def _variations(chain: list[Coeffs], x: Fraction) -> int:
    signs = []
    for c in chain:
        v = ueval(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _deflate_root(f: Coeffs, r: Fraction) -> Coeffs:
    # divide out (x - r) as often as it vanishes
    while f and ueval(f, r) == 0:
        f, rem = poly_divmod(f, [-r, Fraction(1)])
        assert not rem
    return f


def count_roots(f: Coeffs, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi)."""
    f = normalize(f)
    lo, hi = Fraction(lo), Fraction(hi)
    if not f or lo >= hi:
        return 0
    if ueval(f, lo) == 0:
        f = _deflate_root(f, lo)
    if ueval(f, hi) == 0:
        f = _deflate_root(f, hi)
    if degree(f) < 1:
        return 0
    chain = sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(f: Coeffs) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    f = normalize(f)
    if degree(f) < 1:
        return Fraction(1)
    lead = abs(f[-1])
    return 1 + max(abs(a) for a in f[:-1]) / lead


def isolate_roots(
    f: Coeffs,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    width: Fraction = DEFAULT_WIDTH,
) -> list[RootInterval]:
    """Disjoint isolating intervals for the distinct real roots of f in (lo, hi).

    Intervals are refined to at most ``width`` and sorted by position.
    Multiplicities are exact (from the square-free decomposition of f).
    """
    f = normalize(f)
    if degree(f) < 1:
        return []
    bound = root_bound(f)
    lo = Fraction(lo) if lo is not None else -bound
    hi = Fraction(hi) if hi is not None else bound
    found: list[RootInterval] = []
    for factor, mult in squarefree_decomposition(f):
        for iv in _isolate_squarefree(factor, lo, hi, width):
            found.append(RootInterval(iv[0], iv[1], mult))
    found.sort(key=lambda r: (r.lo, r.hi))
    return found


def _nonroot_point(g: Coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    mid = (lo + hi) / 2
    step = (hi - lo) / 64
    probe = mid
    while ueval(g, probe) == 0:
        probe += step
        if probe >= hi:
            probe = lo + step / 7  # last resort, still deterministic
    return probe


def _isolate_squarefree(
    g: Coeffs, lo: Fraction, hi: Fraction, width: Fraction
) -> list[tuple[Fraction, Fraction]]:
    g = normalize(g)
    if degree(g) < 1 or lo >= hi:
        return []
    chain = sturm_chain(g)

    def nroots(a: Fraction, b: Fraction) -> int:
        n = _variations(chain, a) - _variations(chain, b)
        # endpoints are handled by the caller (never roots here)
        return n

    out: list[tuple[Fraction, Fraction]] = []
    # exact roots at the requested endpoints are outside the open interval
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        if ueval(g, a) == 0 or ueval(g, b) == 0:
            # nudge the endpoint off the root; interval arithmetic stays exact
            shift = (b - a) / 2**20
            if ueval(g, a) == 0:
                a += shift
            if ueval(g, b) == 0:
                b -= shift
            if a >= b:
                continue
        n = nroots(a, b)
        if n == 0:
            continue
        if n == 1:
            out.append(_refine_squarefree(g, a, b, width))
            continue
        mid = _nonroot_point(g, a, b)
        work.append((a, mid))
        work.append((mid, b))
    out.sort()
    return out


def _refine_squarefree(
    g: Coeffs, lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    flo = ueval(g, lo)
    fhi = ueval(g, hi)
    assert flo != 0 and fhi != 0
    if (flo > 0) == (fhi > 0):
        # single root of even local crossing cannot happen for squarefree g
        # with exactly one root inside; shrink by Sturm bisection instead
        chain = sturm_chain(g)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if ueval(g, mid) == 0:
                return (mid, mid)
            left = _variations(chain, lo) - _variations(chain, mid)
            if left == 1:
                hi = mid
            else:
                lo = mid
        return (lo, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = ueval(g, mid)
        if fm == 0:
            return (mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return (lo, hi)


def float_root(f: Coeffs, iv: RootInterval) -> float:
    """Float approximation of the isolated root, Newton-polished."""
    x = float(iv.midpoint)
    df = derivative(f)
    for _ in range(3):
        d = ueval_float(df, x)
        if d == 0 or not _finite(d):
            break
        step = ueval_float(f, x) / d
        if not _finite(step):
            break
        x -= step
    lo, hi = float(iv.lo), float(iv.hi)
    if iv.lo != iv.hi and not (lo <= x <= hi):
        x = float(iv.midpoint)
    return x


def _finite(v: float) -> bool:
    return v == v and v not in (float("inf"), float("-inf"))
