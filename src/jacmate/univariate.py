"""Exact univariate polynomial utilities over the rationals.

Polynomials are lists of ``Fraction`` coefficients in ascending order of
power; the zero polynomial is the empty list.  Everything here is exact:
root counting uses Sturm chains, multiplicities come from a square-free
decomposition, and isolating intervals have rational endpoints.  Floats
appear only in the final refinement step.
"""

from __future__ import annotations

import math
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
    "resultant",
    "interpolate",
]

DEFAULT_WIDTH = Fraction(1, 10**12)


@dataclass(frozen=True)
class RootInterval:
    """One real root: lo <= root <= hi, with its multiplicity.

    lo == hi marks an exact rational root; otherwise the open interval
    contains exactly one root, and an endpoint is no root of the same
    square-free factor unless it is an end of the interval searched.
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


def _integer_multiple(c: Coeffs) -> list[int]:
    """c times the positive lcm of its denominators: same roots, same signs."""
    den = math.lcm(*(a.denominator for a in c))
    return [a.numerator * (den // a.denominator) for a in c]


def _sign_at(c: list[int], n: int, d: int) -> int:
    """Sign of the integer polynomial c at n/d for d > 0.

    Evaluates the homogenized sum of c_k * n^k * d^(D-k), which is
    d^D * c(n/d), by Horner in plain integers: no gcd per operation.
    """
    acc = 0
    dk = 1
    for a in reversed(c):
        acc = acc * n + a * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _integer_chain(f: Coeffs) -> list[list[int]]:
    """The Sturm chain of f, each member scaled to an integer multiple."""
    return [_integer_multiple(c) for c in sturm_chain(f)]


def _variations(chain: list[list[int]], x: Fraction) -> int:
    count = last = 0
    for c in chain:
        s = _sign_at(c, x.numerator, x.denominator)
        if s:
            count += last == -s
            last = s
    return count


def _is_root(c: list[int], x: Fraction) -> bool:
    return _sign_at(c, x.numerator, x.denominator) == 0


def _deflate_root(f: Coeffs, r: Fraction) -> Coeffs:
    # divide out (x - r) as often as it vanishes
    while f and _is_root(_integer_multiple(f), r):
        f, rem = poly_divmod(f, [-r, Fraction(1)])
        assert not rem
    return f


def count_roots(f: Coeffs, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in the open interval (lo, hi)."""
    f = normalize(f)
    lo, hi = Fraction(lo), Fraction(hi)
    if not f or lo >= hi:
        return 0
    f = _deflate_root(_deflate_root(f, lo), hi)
    if degree(f) < 1:
        return 0
    chain = _integer_chain(f)
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
    No end of an interval is a root of the square-free factor whose root
    the interval isolates, except ``lo`` or ``hi`` itself: a root there is
    outside (lo, hi) and not reported, but the interval next to it may
    start or end on it.
    """
    f = normalize(f)
    if degree(f) < 1:
        return []
    bound = root_bound(f)
    lo = Fraction(lo) if lo is not None else -bound
    hi = Fraction(hi) if hi is not None else bound
    width = Fraction(width)
    found: list[RootInterval] = []
    for factor, mult in squarefree_decomposition(f):
        for iv in _isolate_squarefree(factor, lo, hi, width):
            found.append(RootInterval(iv[0], iv[1], mult))
    found.sort(key=lambda r: (r.lo, r.hi))
    return found


def _nonroot_point(g: list[int], lo: Fraction, hi: Fraction) -> Fraction:
    mid = (lo + hi) / 2
    step = (hi - lo) / 64
    probe = mid
    while _is_root(g, probe):
        probe += step
        if probe >= hi:
            probe = lo + step / 7  # last resort, still deterministic
    return probe


def _isolate_squarefree(
    g: Coeffs, lo: Fraction, hi: Fraction, width: Fraction
) -> list[tuple[Fraction, Fraction]]:
    if lo >= hi:
        return []
    # roots at the requested ends lie outside the open interval: divide them
    # out once, and no end of a subinterval is a root (midpoints avoid roots)
    g = _deflate_root(_deflate_root(normalize(g), lo), hi)
    if degree(g) < 1:
        return []
    chain = _integer_chain(g)
    gi = chain[0]
    out: list[tuple[Fraction, Fraction]] = []
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        n = _variations(chain, a) - _variations(chain, b)
        if n == 0:
            continue
        if n == 1:
            out.append(_refine_squarefree(gi, a, b, width))
            continue
        mid = _nonroot_point(gi, a, b)
        work.append((a, mid))
        work.append((mid, b))
    out.sort()
    return out


def _refine_squarefree(
    g: list[int], lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisect (lo, hi), holding one root of the squarefree g, to ``width``.

    The root is simple, so g has opposite signs at the two endpoints.  They
    are integer numerators a, b over a shared denominator that doubles with
    each halving, so every midpoint is exact and the returned Fractions are
    the ones plain Fraction bisection would give.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    slo = _sign_at(g, a, den)
    assert slo != 0 and _sign_at(g, b, den) == -slo
    # hi - lo > width  <=>  (b - a) * wd > wn * den
    wn, wd = width.numerator, width.denominator
    while (b - a) * wd > wn * den:
        m = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        sm = _sign_at(g, m, den)
        if sm == 0:
            mid = Fraction(m, den)
            return (mid, mid)
        if sm == slo:
            a = m
        else:
            b = m
    return (Fraction(a, den), Fraction(b, den))


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


def resultant(f: Coeffs, g: Coeffs, m: int, n: int) -> Fraction:
    """Sylvester determinant of f and g at formal degrees m >= deg f, n >= deg g."""
    # integer Bareiss: cf*f and cg*g have cf^n * cg^m times the determinant
    cf, cg = (math.lcm(*(a.denominator for a in c)) for c in (f, g))
    f = [0] * (m + 1 - len(f)) + [int(a * cf) for a in reversed(f)]
    g = [0] * (n + 1 - len(g)) + [int(a * cg) for a in reversed(g)]
    rows = [[0] * k + f + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + g + [0] * (m - 1 - k) for k in range(m)]
    sign, prev = 1, 1
    for c in range(m + n):
        pivot = next((r for r in range(c, m + n) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        top = rows[c]
        for r in range(c + 1, m + n):
            lead = rows[r][c]
            rows[r] = [(top[c] * a - lead * b) // prev for a, b in zip(rows[r], top)]
        prev = top[c]
    return Fraction(sign * prev, cf**n * cg**m)


def interpolate(values: list[Fraction]) -> Coeffs:
    """The polynomial of degree < len(values) that takes values[k] at k."""
    # Newton divided differences, then Horner multiplying only by (x - k)
    coef = [Fraction(v) for v in values]
    for level in range(1, len(coef)):
        for k in range(len(coef) - 1, level - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / level
    out: Coeffs = []
    for k in reversed(range(len(coef))):
        out = [a - k * b for a, b in zip([coef[k]] + out, out + [0])]
    return normalize(out)


def _finite(v: float) -> bool:
    return v == v and v not in (float("inf"), float("-inf"))
