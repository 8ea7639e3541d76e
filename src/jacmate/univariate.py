"""Exact univariate polynomial utilities over the rationals.

Polynomials are lists of coefficients in ascending order of power, as
``Fraction`` or ``int``; the zero polynomial is the empty list.  Everything
here is exact and runs on integer multiples, which have the same roots and
signs: multiplicities come from Yun's square-free decomposition over Z with
a subresultant gcd (Brown & Traub, J. ACM 1971), roots are counted by
Descartes' rule of signs with bisection (Collins & Akritas, SYMSAC 1976),
and isolating intervals have rational endpoints; a float is only ever an
isolated root's nearest double.  An open end of a window is taken at
-/+2^``root_exponent``, past every root.  An isolating interval is a part
of its window's bisection, so it depends on the window; the root's nearest
double and multiplicity do not.  :func:`resultant_y` eliminates y from two
bivariate polynomials in Z[x] for the falsifier's miss proof: one resultant
per node of their integer rows, read off the remainder sequence that the
gcd runs, and exact Newton interpolation in integers (Collins, J. ACM
1971), divided by the two denominators once at the end.  The certify path
eliminates nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

Coeffs = list[Fraction]

__all__ = [
    "RealRoot",
    "normalize",
    "degree",
    "ueval",
    "derivative",
    "subresultant_gcd",
    "squarefree_decomposition",
    "count_roots",
    "root_exponent",
    "probe_bracket",
    "isolate_roots",
    "resultant",
    "resultant_y",
    "interpolate",
]

DEFAULT_WIDTH = Fraction(1, 10**12)

# _nearest_doubles: the most float Newton steps of its guess, and the most
# doubles past the guess whose exact signs it reads
GUESS_STEPS = 100
NEIGHBOURS = 4
# probe_bracket tests a pair for one root only up to this degree (its docstring)
UNIQUENESS_MAX_DEGREE = 52


@dataclass(frozen=True)
class RealRoot:
    """One real root of a polynomial f, with its multiplicity in f.

    ``g`` is the integer factor of f whose simple root it is: f's
    square-free factor of that multiplicity, or f's integer multiple when
    f has no other root in the window searched, with any root at that
    window's ends divided out.  Either lo == hi is the root, or g has
    opposite nonzero signs at lo and hi and exactly one root between them
    (Collins & Loos: a defining polynomial and an isolating interval).
    """

    g: tuple[int, ...]
    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        """The double nearest the root, ties to even.

        Decided by exact signs of g.  The class invariant gives g one root
        in (lo, hi), so ``_nearest_doubles`` needs no test before it finds
        the root's neighbouring doubles, and m is their midpoint.  Where it
        does not decide, (lo, hi) is halved until it holds at most one
        multiple m of 2^``_half_spacing``.  The sign at m leaves the root at
        m, which ``float`` rounds exactly, ties to even, or where every
        point rounds alike.  OverflowError when a nonzero root rounds to 0
        or +/-inf.
        """
        g, lo, hi = self.g, self.lo, self.hi
        if lo != hi:
            slo = _sign_at(g, lo.numerator, lo.denominator)
            if (pair := _nearest_doubles(g, lo, hi, slo)) is not None:
                lo, hi = pair
                m = (lo + hi) / 2
            else:

                def wide(a: int, b: int, d: int) -> bool:
                    t = _half_spacing(a if a > 0 else max(-b, 0), d)  # from the end nearer 0
                    return ((b - a) << -t > d) if t < 0 else (b - a > d << t)

                lo, hi = _bisect(g, lo, hi, wide)
                near = max(lo, -hi, 0)
                h = Fraction(2) ** _half_spacing(near.numerator, near.denominator)
                m = (math.floor(lo / h) + 1) * h  # the least multiple of h past lo
            if lo < m < hi:
                s = _sign_at(g, m.numerator, m.denominator) * slo
                lo, hi = (m, hi) if s > 0 else (lo, m) if s < 0 else (m, m)
        root = (lo + hi) / 2
        if not (x := float(root)) and root:  # float() raises past the largest double
            raise OverflowError("a nonzero root rounds to 0.0, past the float range")
        return x

    def sign(self, q: Coeffs) -> int:
        """Sign of q at the root.

        0 when q vanishes there: the gcd check decides it, since halving
        until q has no root inside would never stop.  Otherwise (lo, hi) is
        halved while q has a root in it or at its lower end.
        """
        lo, hi = self.lo, self.hi
        if count_roots(subresultant_gcd(q, self.g), lo, hi):
            return 0
        if lo != hi:

            def wide(a: int, b: int, den: int) -> bool:
                end = Fraction(a, den)
                return count_roots(q, end, Fraction(b, den)) or not ueval(q, end)

            lo, _ = _bisect(self.g, lo, hi, wide)
        v = ueval(q, lo)
        return (v > 0) - (v < 0)


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


def _remainders(a: list[int], b: list[int]) -> tuple[list[int], list[int], int, int]:
    """The subresultant remainder sequence of a and b, deg a >= deg b >= 0.

    Brown & Traub's sequence in Cohen's form (GTM 138, Alg. 3.3.7): each
    division is exact over Z and the coefficients grow only linearly with
    the degree.  Returns (a', r, h, s): a' the last nonconstant member; r
    the member after it, a nonzero constant, or [] when a' divides the one
    before; and the scale h and sign s that the resultant needs.
    """
    g = h = s = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == len(b) % 2 == 0:  # both degrees odd
            s = -s
        r = _prem(a, b)
        if not r:
            return b, r, h, s
        den = g * h**delta
        a, b = b, [v // den for v in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    return a, b, h, s


def subresultant_gcd(a: Coeffs, b: Coeffs) -> list[int]:
    """gcd(a, b) as a primitive integer polynomial with positive leading coefficient.

    The last nonconstant member of the remainder sequence of a and b when
    the remainder after it is 0; [1] when that remainder is a nonzero
    constant.  The gcd of two zero polynomials is [].
    """
    a, b = _integer_multiple(normalize(a)), _integer_multiple(normalize(b))
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else []
    last, r, _, _ = _remainders(_primitive(a), _primitive(b))
    return [1] if r else _primitive(last)


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
    d^D * c(n/d), by Horner in plain integers: no gcd per operation.  A
    power of 2 for d, as at every dyadic point, scales by shifts.
    """
    acc = 0
    if d & (d - 1) == 0:
        e, shift = d.bit_length() - 1, 0
        for a in reversed(c):
            acc = acc * n + (a << shift)
            shift += e
        return (acc > 0) - (acc < 0)
    dk = 1
    for a in reversed(c):
        acc = acc * n + a * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _deflate_root(g: list[int], r: Fraction) -> list[int]:
    # divide out (den * x - num) as often as r = num / den is a root
    while g and not _sign_at(g, r.numerator, r.denominator):
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


def _window(f: Coeffs, lo: Fraction | None, hi: Fraction | None):
    """(c, lo, hi, changes): f's integer multiple, the open window with an
    end left None at -/+2^root_exponent(c), and Descartes' bound on it; None
    for a constant f or an empty window."""
    f = normalize(f)
    if degree(f) < 1:
        return None
    c = _integer_multiple(f)
    if lo is None or hi is None:
        bound = 2 ** root_exponent(c)
        lo, hi = (-bound if lo is None else lo), (bound if hi is None else hi)
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        return None
    return c, lo, hi, _descartes_bound(c, lo, hi)


def count_roots(f: Coeffs, lo: Fraction | None = None, hi: Fraction | None = None) -> int:
    """Number of distinct real roots in the open (lo, hi); an end left None is unbounded.

    Zero or one Descartes sign change on the window is the count; more
    count the parts of its bisection that hold one root of the square-free
    part of f.
    """
    if (window := _window(f, lo, hi)) is None:
        return 0
    c, lo, hi, changes = window
    if changes < 2:
        return changes  # exact with or without multiple roots
    return len(_one_root_intervals(_divide(c, subresultant_gcd(c, derivative(c))), lo, hi))


def root_exponent(c: list[int]) -> int:
    """K >= 1 with every complex root of the nonconstant integer c of modulus < 2^K.

    Fujiwara's bound 2 * max_k |c_(n-k) / c_n|^(1/k) rounded up by bit
    lengths: |c_(n-k) / c_n| < 2^(L(c_(n-k)) - L(c_n) + 1) <= 2^(k * m_k),
    with L the bit length and m_k that exponent over k, rounded up.
    """
    lead = abs(c[-1]).bit_length()
    ks = range(len(c) - 1, 0, -1)
    m = max((-((lead - 1 - abs(a).bit_length()) // k) for k, a in zip(ks, c) if a), default=0)
    return max(m, 0) + 1


def isolate_roots(
    f: Coeffs,
    lo: Fraction | None = None,
    hi: Fraction | None = None,
    width: Fraction = DEFAULT_WIDTH,
) -> list[RealRoot]:
    """The distinct real roots of f in the open (lo, hi), sorted by position.

    Each root carries its factor of f (``RealRoot``) and its exact
    multiplicity, from the square-free decomposition of f, and its interval
    is refined to at most ``width``.  A root is isolated among its own
    factor's roots only: intervals of different factors may overlap, and
    two roots closer than ``width`` may share one, as the simple and the
    triple root of (y^2 - 2)^3 (10^30 y^2 - 2*10^30 - 1) do.  A root at
    ``lo`` or ``hi`` is outside (lo, hi) and not reported, but the interval
    next to it may start or end on it.

    The interval is halved from the part of the window's bisection on which
    Descartes' rule stops, so it depends on the window; the root's
    ``float`` and multiplicity do not.
    """
    if (window := _window(f, lo, hi)) is None:
        return []
    c, lo, hi, changes = window
    width = Fraction(width)
    wn, wd = width.numerator, width.denominator  # b - a > width: (b - a) * wd > wn * den
    found: list[RealRoot] = []
    # Descartes' rule is exact for 0 and 1 sign changes, multiple roots or
    # not: only two or more need the square-free factors
    for factor, mult in [(c, 1)] * changes if changes < 2 else squarefree_decomposition(c):
        # roots at the requested ends lie outside the open interval: divide
        # them out, and no end of a part is a root (splits avoid roots)
        g = _deflate_root(_deflate_root(factor, lo), hi)
        for a, b in _one_root_intervals(g, lo, hi):  # g changes sign on each
            ab = _bisect(g, a, b, lambda u, v, d: (v - u) * wd > wn * d)
            found.append(RealRoot(tuple(g), *ab, mult))
    found.sort(key=lambda r: (r.lo, r.hi))
    return found


def _nonroot_point(g: list[int], lo: Fraction, hi: Fraction) -> Fraction:
    mid = (lo + hi) / 2
    step = (hi - lo) / 64
    probe = mid
    while not _sign_at(g, probe.numerator, probe.denominator):
        probe += step
        if probe >= hi:
            probe = lo + step / 7  # last resort, still deterministic
    return probe


def _one_root_intervals(
    g: list[int], lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """The parts of a bisection of (lo, hi) with one Descartes sign change, in order.

    Parts with two or more sign changes are split at ``_nonroot_point`` and
    parts with none are dropped, so each part returned holds one root of g.
    """
    out, work = [], [(lo, hi)]
    while work:
        a, b = work.pop()
        changes = _descartes_bound(g, a, b)
        if changes == 1:
            out.append((a, b))
        elif changes:
            mid = _nonroot_point(g, a, b)
            work += [(mid, b), (a, mid)]
    return out


def _bisect(g: list[int], lo: Fraction, hi: Fraction, wide) -> tuple[Fraction, Fraction]:
    """Halve (lo, hi), where g has opposite signs at the two ends, while
    ``wide(a, b, den)``; (r, r) if a midpoint r is a root.

    The ends are integer numerators a, b over a shared denominator that
    doubles with each halving, so every midpoint is exact and the returned
    Fractions are the ones plain Fraction bisection would give.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    slo = _sign_at(g, a, den)
    assert slo != 0 and _sign_at(g, b, den) == -slo
    while wide(a, b, den):
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


def _nearest_doubles(
    g: list[int], lo: Fraction, hi: Fraction, slo: int
) -> tuple[Fraction, Fraction] | None:
    """(r, r) when the one root r of g in the open (lo, hi) is a double, else
    the neighbouring doubles a < r < b; None when it cannot tell.

    g has the sign slo at lo and exactly one root in (lo, hi), a simple one,
    so at a point of [lo, hi] its exact sign is slo below r and -slo above:
    a pair of neighbouring doubles there with opposite signs, or a double
    where g is 0, is the answer.  The doubles tried come from a Newton guess
    in floats on g over a power of 2, kept inside a float bracket and
    halving it whenever a step leaves it; its exact sign and those of at
    most NEIGHBOURS doubles next to it, walking towards r, decide.  None
    when lo, hi or a value of g in floats overflows, r lies past those
    neighbours, or a double read lies outside [lo, hi].
    """
    # g over a power of 2 that brings its largest coefficient below 2^1000
    scale = 1 << max(max(map(abs, g)).bit_length() - 1000, 0)
    cs = [v / scale for v in reversed(g)]
    try:
        a, b = float(lo), float(hi)
    except OverflowError:
        return None
    x = a / 2 + b / 2
    for _ in range(GUESS_STEPS):
        v = dv = 0.0
        for cv in cs:
            dv = dv * x + v
            v = v * x + cv
        if not (math.isfinite(v) and math.isfinite(dv)):
            return None
        if not v:
            break
        if (v > 0) == (slo > 0):
            a = x
        else:
            b = x
        if abs(v) <= 2 * math.ulp(x) * abs(dv):  # a Newton step of 2 ulps at most
            break
        step = x - v / dv if dv else x
        if not a < step < b:
            step = a / 2 + b / 2
        if step == x:
            break
        x = step

    def sign(y: float) -> int | None:
        if not lo <= y <= hi:  # exact: an int or a Fraction against a float
            return None
        n, d = y.as_integer_ratio()
        return _sign_at(g, n, d)

    s = sign(x)
    if s is None:
        return None
    if not s:
        return (Fraction(x), Fraction(x))
    toward = math.inf if s == slo else -math.inf  # where r lies from x
    for _ in range(NEIGHBOURS):
        y = math.nextafter(x, toward)
        if (t := sign(y)) is None:
            return None
        if not t:
            return (Fraction(y), Fraction(y))
        if t != s:
            return (Fraction(min(x, y)), Fraction(max(x, y)))
        x = y
    return None


def probe_bracket(c: list[int], top: int) -> tuple[Fraction, Fraction] | None:
    """A real root r of the integer c with |r| <= 2^top, proved by exact
    signs, or None.

    The probes are y = 0, 1, -1, 2, -2, 4, -4, ... out to +/-2^k, where k
    is the least of ``top`` and K = ``root_exponent(c)``, past every root.
    The first probe where c is 0 gives (r, r).  The first pair of
    neighbouring probes, outward from 0, where c changes sign is bisected
    on dyadic rationals until it is no wider than the float spacing at its
    end nearer 0, or than 2^-(top + 53); a midpoint that is a root gives
    (r, r).  Its ends keep opposite signs, so it holds a root by the
    intermediate value theorem.  A doubling pair starts within a factor of
    2 of its root and takes 52 halvings; a pair ending at 0 at most
    top + 53.  None means no probe decides: c is a nonzero constant, has
    no real root of modulus up to 2^top, or changes sign there only
    between two probes, an even number of times.  The zero polynomial
    gives (0, 0).

    When the pair holds one root r, the halvings need not be paid.  Each
    keeps the half that holds r, so they walk r's own nested dyadic cells.
    The doubles of a binade [2^e, 2^(e + 1)) are the multiples of its
    spacing 2^(e - 52) there.  A doubling pair's ends are doubles of one
    binade, so a double r is a midpoint before the cells reach that
    spacing, and any other r ends in the cell between its two neighbouring
    doubles.  A pair at 0 halves until its end nearer 0 leaves 0, then
    the same way, unless the width 2^-(top + 53) stops it first: it does not
    when the neighbour of r nearer 0 is at least 2^-(top + 1), 2^-65 at
    ``top`` = 64, and a normal double, at least 2^-1022.  Below that the
    answer is a wider cell, which the halvings give.  So the answer is
    (r, r) for a double r and r's neighbouring doubles otherwise, which
    ``_nearest_doubles`` finds from a float guess and a few exact signs.
    Descartes' rule on the open pair tells whether it holds one root.  On
    degree n it makes about n(n + 1) multiplications.  A halving makes
    n + 1, and a doubling pair takes 52 of them, a pair at 0 more.  So the
    rule runs only where n(n + 1) <= 52(n + 1), up to degree
    ``UNIQUENESS_MAX_DEGREE`` = 52; on 64-bit coefficients there it took
    0.2 to 0.9 of the time of 52 halvings (2-core VM, Python 3.11).  Above
    that degree, and where the rule or ``_nearest_doubles`` does not
    decide, the pair is bisected.
    """
    if len(c) < 2:
        return None if c else (Fraction(0), Fraction(0))
    s0 = _sign_at(c, 0, 1)
    if not s0:
        return (Fraction(0), Fraction(0))

    def wide(a: int, b: int, den: int) -> bool:
        # b - a is a power of 2, and a, b have one sign or one is 0: wider
        # than 2^-(top + 53) and than 2^-52 times the leading power of 2 of
        # the end nearer 0, or that end is 0
        near, width = (a if a >= 0 else -b), b - a
        finest = (width << (top + 53)) <= den
        return not finest and (not near or width.bit_length() + 52 > near.bit_length())

    inner = {1: (0, s0), -1: (0, s0)}  # each side's last probe and its sign
    for k in range(min(root_exponent(c), top) + 1):
        for side in (1, -1):
            y = side << k
            s = _sign_at(c, y, 1)
            if not s:
                return (Fraction(y), Fraction(y))
            last, s_last = inner[side]
            if s != s_last:
                lo, hi = sorted((last, y))
                if len(c) - 1 <= UNIQUENESS_MAX_DEGREE and _descartes_bound(c, lo, hi) == 1:
                    pair = _nearest_doubles(c, lo, hi, s if lo == y else s_last)
                    if pair and (last or min(map(abs, pair)) >= 2.0 ** -min(top + 1, 1022)):
                        return pair
                return _bisect(c, Fraction(lo), Fraction(hi), wide)
            inner[side] = (y, s)
    return None


def _half_spacing(n: int, d: int) -> int:
    """t with 2^t dividing every double of modulus >= max(n / d, 2^-1022) and
    every midpoint of two neighbours, half their spacing there; n = 0: -1075."""
    e = n.bit_length() - d.bit_length()
    e -= (n << -e < d) if e < 0 else (n < d << e)  # for n > 0, 2^e <= n / d < 2^(e + 1)
    return max(e, -1022) - 53 if n else -1075


def resultant(f: list[int], g: list[int], m: int, n: int) -> int:
    """Sylvester determinant of the integer f and g at formal degrees m >= deg f, n >= deg g.

    A top coefficient missing from one of them leaves one entry in the
    first column, (-1)^n lc(g) or lc(f), and the matrix of one formal degree
    less as its minor; both missing leave a zero column.  The rest is read
    off the remainder sequence of the two primitive parts (Cohen, GTM 138,
    Alg. 3.3.7), times their contents.
    """
    f, g, scale = normalize(f), normalize(g), 1
    while m and n and (len(f) <= m) != (len(g) <= n):
        if len(f) > m:
            scale, n = scale * f[-1], n - 1
        else:
            scale, m = scale * (-1) ** n * g[-1], m - 1
    if not m or not n:  # a diagonal matrix, 1 when it is 0 x 0
        return scale * ((f[0] if f else 0) ** n if not m else (g[0] if g else 0) ** m)
    if len(f) <= m:  # both tops missing
        return 0
    if m < n:
        f, g, m, n = g, f, n, m
        scale *= (-1) ** (m * n)
    pf, pg = _primitive(f), _primitive(g)
    last, r, h, s = _remainders(pf, pg)
    if not r:
        return 0
    k = len(last) - 1
    scale *= s * (f[-1] // pf[-1]) ** n * (g[-1] // pg[-1]) ** m
    return scale * (r[0] ** k // h ** (k - 1))


def resultant_y(f, g) -> Coeffs:
    """Res_y(f, g) of two bivariate polynomials at formal degrees, in x.

    The falsifier's miss proof is its one user; [] when f or g is 0 or they
    share a factor.  With m = deg_y f, n = deg_y g and the common
    denominators a of f and b of g, R = Res_y(a*f, b*g) = a^n * b^m *
    Res_y(f, g) lies in Z[x].  Its value at each node x = 0, 1, ..., N is
    the :func:`resultant` of the integer rows ``integer_row(k)``, which are
    a*f(k, .) and b*g(k, .); R is interpolated exactly in integers and
    divided by a^n * b^m once.

    N, the degree R can reach, is the lesser of n * deg_x f + m * deg_x g
    and n * d + m * e - m * n, with d and e the total degrees of f and g.
    Proof of the second: in the Sylvester matrix, f-row i (0 <= i < n)
    holds in column c the coefficient of y^(m - c + i) in f, whose x-degree
    is at most d - m + c - i, and g-row i' (0 <= i' < m) the coefficient of
    y^(n - c + i') in g, of x-degree at most e - n + c - i'.  A nonzero term
    of the determinant takes one entry from each row and each column, so
    its degree is at most the sum of these bounds over all rows and
    columns: n(d - m) + m(e - n) + (0 + 1 + ... + (m + n - 1))
    - (0 + ... + (n - 1)) - (0 + ... + (m - 1)) = n * d + m * e - m * n.
    That is d * e - (d - m)(e - n) <= d * e, Bezout's bound, and below the
    first bound when the top coefficients in y have low degree in x: on the
    falsifier's quadratic Jacobians, 2 against up to 4.
    """
    if f.is_zero or g.is_zero:
        return []
    m, n = f.degree_y(), g.degree_y()
    d, e = (max(map(sum, h.support())) for h in (f, g))
    top = min(n * f.degree_x() + m * g.degree_x(), n * d + m * e - m * n)
    r = interpolate([resultant(f.integer_row(k), g.integer_row(k), m, n) for k in range(top + 1)])
    scale = f.denominator**n * g.denominator**m
    return [Fraction(a, scale) for a in r]


def interpolate(values: list[int]) -> list[int]:
    """The polynomial in Z[x] of degree < len(values) that takes values[k] at k.

    Newton's divided differences over the nodes 0, 1, 2, ... are
    Delta^L P(k) / L!, which are integers for P in Z[x], and so is each
    step's quotient: every division is exact.  Values that no polynomial in
    Z[x] of that degree takes, as 0, 0, 1 of x(x - 1)/2, raise ValueError.
    """
    coef = list(values)
    for level in range(1, len(coef)):
        for k in range(len(coef) - 1, level - 1, -1):
            coef[k], rem = divmod(coef[k] - coef[k - 1], level)
            if rem:
                raise ValueError("the values are not those of a polynomial in Z[x]")
    # Horner in the Newton basis, multiplying only by (x - k)
    out: list[int] = []
    for k in reversed(range(len(coef))):
        out = [a - k * b for a, b in zip([coef[k]] + out, out + [0])]
    return normalize(out)
