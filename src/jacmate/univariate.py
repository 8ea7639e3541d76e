"""Exact univariate polynomial utilities over the rationals.

Polynomials are lists of coefficients in ascending order of power, as
``Fraction`` or ``int``; the zero polynomial is the empty list.  Everything
here is exact and runs on integer multiples, which have the same roots and
signs: multiplicities come from Yun's square-free decomposition over Z with
a subresultant gcd (Brown & Traub, J. ACM 1971), roots are counted by
Descartes' rule of signs with bisection (Collins & Akritas, SYMSAC 1976),
and isolating intervals have rational endpoints.  Floats appear only in the
final refinement step.  :func:`resultant_y` eliminates y from two bivariate
polynomials through these: one integer determinant per node, interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

Coeffs = list[Fraction]

__all__ = [
    "RootInterval",
    "normalize",
    "degree",
    "ueval",
    "ueval_float",
    "derivative",
    "subresultant_gcd",
    "squarefree_decomposition",
    "count_roots",
    "root_bound",
    "isolate_roots",
    "float_root",
    "resultant",
    "resultant_y",
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


def _integer_multiple(c: Coeffs) -> list[int]:
    """c times the positive lcm of its denominators: same roots, same signs."""
    den = math.lcm(*(a.denominator for a in c))
    return [a.numerator * (den // a.denominator) for a in c]


def _primitive(c: list[int]) -> list[int]:
    """The nonzero c over its content, with a positive leading coefficient."""
    g = math.gcd(*c) if c[-1] > 0 else -math.gcd(*c)
    return [a // g for a in c]


def _divide(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b divides a over Z."""
    r, n, q = list(a), len(b) - 1, []
    for top in reversed(range(n, len(a))):
        c, rem = divmod(r.pop(), b[-1])
        assert rem == 0, "not an exact division"
        q.append(c)
        r = [v - c * w for v, w in zip(r, [0] * (top - n) + b)]
    assert not any(r), "not an exact division"
    return q[::-1]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, over Z."""
    r, n, lead = list(a), len(b) - 1, b[-1]
    for top in reversed(range(n, len(a))):
        q = r.pop()
        r = [lead * v - q * w for v, w in zip(r, [0] * (top - n) + b)]
    return normalize(r)


def subresultant_gcd(a: Coeffs, b: Coeffs) -> list[int]:
    """gcd(a, b) as a primitive integer polynomial with positive leading coefficient.

    Runs the subresultant remainder sequence (Brown & Traub): each division
    is exact over Z and the coefficients grow only linearly with the
    degree.  The gcd of two zero polynomials is [].
    """
    a, b = _integer_multiple(normalize(a)), _integer_multiple(normalize(b))
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else []
    a, b = _primitive(a), _primitive(b)
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            return _primitive(b)
        den = g * h**delta
        a, b = b, [v // den for v in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    return [1]  # a nonzero constant remainder


def squarefree_decomposition(f: Coeffs) -> list[tuple[list[int], int]]:
    """Yun decomposition over Z: pairwise coprime squarefree factors with multiplicity.

    Each factor is a primitive integer polynomial with positive leading
    coefficient.  The constant factor of f is dropped, so the result
    describes the roots of f, not f itself up to units.
    """
    f = _integer_multiple(normalize(f))
    if len(f) < 2:
        return []
    df = derivative(f)
    a = subresultant_gcd(f, df)
    b, c = _divide(f, a), _divide(df, a)
    out, m = [], 1
    while len(b) > 1:
        d = normalize([u - v for u, v in zip_longest(c, derivative(b), fillvalue=0)])
        g = subresultant_gcd(b, d)
        if len(g) > 1:
            out.append((g, m))
        b, c = _divide(b, g), _divide(d, g)
        m += 1
    return out


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


def _is_root(c: list[int], x: Fraction) -> bool:
    return _sign_at(c, x.numerator, x.denominator) == 0


def _deflate_root(g: list[int], r: Fraction) -> list[int]:
    # divide out (den * x - num) as often as r = num / den is a root
    while g and _is_root(g, r):
        g = _divide(g, [-r.numerator, r.denominator])
    return g


def _descartes_bound(c: list[int], lo: Fraction, hi: Fraction) -> int:
    """Sign changes in the coefficients of (1 + x)^n c((hi + lo x) / (1 + x)).

    Its positive roots are the images of the roots of c in the open
    (lo, hi), so by Descartes' rule of signs this bounds their number,
    counted with multiplicity, and has its parity: 0 and 1 are exact.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    w = hi.numerator * (den // hi.denominator) - a
    # q(x) = den^n c((a + w x) / den), by Horner in (a + w x): roots in (0, 1)
    q, scale = [c[-1]], 1
    for ck in reversed(c[:-1]):
        scale *= den
        q = [a * u + w * v for u, v in zip(q + [0], [0] + q)]
        q[0] += ck * scale
    # (1 + x)^n q(1 / (1 + x)), by Horner in (1 + x): roots in (0, oo)
    t = [q[0]]
    for qk in q[1:]:
        t = [u + v for u, v in zip(t + [0], [0] + t)]
        t[0] += qk
    signs = [v > 0 for v in t if v]
    return sum(s != r for s, r in zip(signs, signs[1:]))


def count_roots(f: Coeffs, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots in the open (lo, hi); an end left None is -/+ root_bound(f)."""
    f = normalize(f)
    if degree(f) < 1:
        return 0
    lo, hi = _search_interval(f, lo, hi)
    if lo >= hi:
        return 0
    c = _integer_multiple(f)
    changes = _descartes_bound(c, lo, hi)
    if changes < 2:
        return changes  # exact with or without multiple roots
    return len(_one_root_intervals(_divide(c, subresultant_gcd(c, derivative(c))), lo, hi))


def root_bound(f: Coeffs) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    f = normalize(f)
    if degree(f) < 1:
        return Fraction(1)
    # exact for int coefficients too, where / would give a float
    return 1 + Fraction(max(abs(a) for a in f[:-1]), abs(f[-1]))


def _search_interval(f: Coeffs, lo, hi) -> tuple[Fraction, Fraction]:
    """(lo, hi) as Fractions, an end left None at -/+ ``root_bound(f)``."""
    bound = root_bound(f) if lo is None or hi is None else 0
    return Fraction(-bound if lo is None else lo), Fraction(bound if hi is None else hi)


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
    lo, hi = _search_interval(f, lo, hi)
    if lo >= hi:
        return []
    width = Fraction(width)
    c = _integer_multiple(f)
    # Descartes' rule is exact for 0 and 1 sign changes, multiple roots or
    # not: only two or more need the square-free factors
    changes = _descartes_bound(c, lo, hi)
    found: list[RootInterval] = []
    for factor, mult in [(c, 1)] * changes if changes < 2 else squarefree_decomposition(f):
        # roots at the requested ends lie outside the open interval: divide
        # them out, and no end of a part is a root (splits avoid roots)
        g = _deflate_root(_deflate_root(factor, lo), hi)
        for a, b in _one_root_intervals(g, lo, hi):
            found.append(RootInterval(*_refine_squarefree(g, a, b, width), mult))
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


def _one_root_intervals(
    g: list[int], lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """The widest parts of a bisection of (lo, hi) that hold one root of g each.

    Parts with two or more Descartes sign changes are split at
    ``_nonroot_point``, so each root of g ends a path of parts.  An exact
    root count stops on the first part of a path that no other path shares;
    paths in order of position share the most with their neighbours.
    """
    paths, work = [], [[(lo, hi)]]
    while work:
        path = work.pop()
        a, b = path[-1]
        changes = _descartes_bound(g, a, b)
        if changes == 1:
            paths.append(path)
        elif changes:
            mid = _nonroot_point(g, a, b)
            work += [path + [(mid, b)], path + [(a, mid)]]
    own = [0] * len(paths)
    for i in range(1, len(paths)):
        k = next(k for k, (u, v) in enumerate(zip(paths[i - 1], paths[i])) if u != v)
        own[i - 1], own[i] = max(own[i - 1], k), k
    return [path[k] for path, k in zip(paths, own)]


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
        if d == 0 or not math.isfinite(d):
            break
        step = ueval_float(f, x) / d
        if not math.isfinite(step):
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


def resultant_y(f, g) -> Coeffs:
    """Res_y(f, g) of two bivariate polynomials at formal degrees, in x.

    One determinant at each x = 0, 1, ..., deg_y g * deg_x f + deg_y f *
    deg_x g, one node more than its degree can be, then interpolated; []
    when f or g is 0 or they share a factor.
    """
    if f.is_zero or g.is_zero:
        return []
    m, n = f.degree_y(), g.degree_y()
    return interpolate([
        resultant(f.restricted_to_x(k), g.restricted_to_x(k), m, n)
        for k in range(n * f.degree_x() + m * g.degree_x() + 1)
    ])


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
