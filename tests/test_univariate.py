import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacmate.poly import BivariatePolynomial, apply_transform, parse_polynomial
from jacmate.polygon import corollary_certificate
from jacmate.tongue import region_orientation, restriction_profile
from jacmate import univariate
from jacmate.univariate import (
    DEFAULT_WIDTH,
    RealRoot,
    _bisect,
    _half_spacing,
    _integer_multiple,
    _nearest_doubles,
    _sign_at,
    count_roots,
    degree,
    derivative,
    interpolate,
    isolate_roots,
    normalize,
    probe_bracket,
    resultant,
    resultant_y,
    root_exponent,
    squarefree_decomposition,
    subresultant_gcd,
    ueval,
)

try:
    import sympy
except ImportError:  # test-only oracle
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is the oracle")

# deterministic examples, no example database in the tree
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
reaches = st.fractions(min_value=0, max_value=5, max_denominator=12)


def from_roots(roots):
    # prod (y - r) over the given rational roots, ascending coefficients
    f = [Fraction(1)]
    for r in roots:
        f = [Fraction(0)] + f
        for k in range(len(f) - 1):
            f[k] -= r * f[k + 1]
    return f


def times(f, g):
    prod = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return prod


def cauchy_bound(f):
    # every real root of f lies in (-B, B); 1 for a constant
    f = normalize(f)
    return 1 + Fraction(max((abs(a) for a in f[:-1]), default=0), abs(f[-1]))


def test_from_roots_helper():
    # (y - 1)(y + 2) = y^2 + y - 2
    assert from_roots([Fraction(1), Fraction(-2)]) == [
        Fraction(-2),
        Fraction(1),
        Fraction(1),
    ]


def test_normalize_and_degree():
    assert normalize([Fraction(0), Fraction(0)]) == []
    assert degree([Fraction(3)]) == 0
    assert degree([]) < 0
    # degree expects a normalized list
    assert degree(normalize([Fraction(0), Fraction(1), Fraction(0)])) == 1


def test_ueval_horner():
    f = [Fraction(-2), Fraction(1), Fraction(1)]
    assert ueval(f, Fraction(1)) == 0
    assert ueval(f, Fraction(-2)) == 0
    assert ueval(f, Fraction(0)) == -2


def test_derivative():
    f = [Fraction(5), Fraction(0), Fraction(3)]  # 3y^2 + 5
    assert derivative(f) == [Fraction(0), Fraction(6)]
    assert derivative([Fraction(7)]) == []


def test_subresultant_gcd_recovers_common_factor():
    a = from_roots([Fraction(1), Fraction(2)])
    b = from_roots([Fraction(1), Fraction(-3)])
    # primitive, positive leading coefficient: exactly (y - 1)
    assert subresultant_gcd(a, b) == [-1, 1]
    assert subresultant_gcd([Fraction(-3), Fraction(6)], [Fraction(1, 2), Fraction(-1)]) == [-1, 2]
    assert subresultant_gcd(a, []) == [2, -3, 1]
    assert subresultant_gcd([], []) == []
    assert subresultant_gcd(a, [Fraction(5)]) == [1]


@needs_sympy
def test_subresultant_gcd_matches_sympy():
    y = sympy.symbols("y")
    rng = random.Random(2005)
    def draw(size):
        return [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, size))]

    for _ in range(60):
        # a common factor, and cofactors that may share more, of degree up to 9
        common = draw(4)
        a, b = normalize(times(common, draw(6))), normalize(times(common, draw(6)))
        if not a or not b:
            continue
        _, want = sympy.gcd(*(sympy.Poly(c[::-1], y) for c in (a, b))).primitive()
        want = [int(v) for v in want.all_coeffs()[::-1]]
        if want[-1] < 0:
            want = [-v for v in want]
        assert subresultant_gcd(a, b) == want


def test_squarefree_decomposition_multiplicities():
    # (y - 1)^3 (y + 2)^2 (y - 5)
    f = [Fraction(1)]
    for r, m in ((Fraction(1), 3), (Fraction(-2), 2), (Fraction(5), 1)):
        for _ in range(m):
            g = from_roots([r])
            prod = [Fraction(0)] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    prod[i + j] += a * b
            f = prod
    parts = squarefree_decomposition(f)
    by_mult = {m: g for g, m in parts}
    assert set(by_mult) == {1, 2, 3}
    assert ueval(by_mult[3], Fraction(1)) == 0
    assert ueval(by_mult[2], Fraction(-2)) == 0
    assert ueval(by_mult[1], Fraction(5)) == 0


def test_count_roots_on_open_intervals():
    f = from_roots([Fraction(-1), Fraction(0), Fraction(3, 2)])
    assert count_roots(f, Fraction(-10), Fraction(10)) == 3
    assert count_roots(f, Fraction(0), Fraction(2)) == 1  # open: root at 0 excluded
    assert count_roots(f, Fraction(-1), Fraction(3, 2)) == 1  # both ends are roots
    assert count_roots(f, Fraction(1), Fraction(2)) == 1
    assert count_roots(f, Fraction(2), Fraction(10)) == 0
    # (y^2 - 2)^2 has two sign changes on (0, 2) but one distinct root there
    g = times([Fraction(-2), 0, Fraction(1)], [Fraction(-2), 0, Fraction(1)])
    assert count_roots(g, Fraction(0), Fraction(2)) == 1
    assert count_roots(g, Fraction(-2), Fraction(2)) == 2
    # (y - 3)^2 + 1: two sign changes on (0, 5), no real root
    assert count_roots([Fraction(10), Fraction(-6), Fraction(1)], Fraction(0), Fraction(5)) == 0


def test_root_exponent_dominates_rational_roots():
    rng = random.Random(2002)
    for _ in range(60):
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
        f = from_roots(roots)
        bound = 2 ** root_exponent(_integer_multiple(f))
        assert all(abs(r) < bound for r in roots)


def test_isolation_on_integer_coefficients():
    # the kernel's own factors are int lists: open ends at -/+2^2 stay Fractions
    assert root_exponent([-2, 0, 1]) == 2
    roots = isolate_roots([-2, 0, 1])
    assert all(type(end) is Fraction and -4 <= end <= 4 for r in roots for end in (r.lo, r.hi))
    assert [iv.multiplicity for iv in roots] == [1, 1]
    assert roots[0].hi < 0 < roots[1].lo
    assert all(iv.lo**2 <= 2 <= iv.hi**2 for iv in roots[1:])


def test_isolate_roots_recovers_rational_roots():
    rng = random.Random(2003)
    for _ in range(40):
        roots = sorted(
            {Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))}
        )
        f = from_roots(roots)
        ivs = isolate_roots(f)
        assert len(ivs) == len(roots)
        for iv, r in zip(ivs, roots):
            assert iv.lo <= r <= iv.hi
            assert iv.hi - iv.lo <= DEFAULT_WIDTH
            assert iv.multiplicity == 1


def test_isolate_roots_reports_multiplicity():
    f = from_roots([Fraction(2), Fraction(2), Fraction(-1)])
    ivs = isolate_roots(f)
    assert [iv.multiplicity for iv in ivs] == [1, 2]
    assert ivs[0].lo <= -1 <= ivs[0].hi
    assert ivs[1].lo <= 2 <= ivs[1].hi


def test_isolate_roots_respects_window():
    f = from_roots([Fraction(-5), Fraction(1, 2), Fraction(7)])
    ivs = isolate_roots(f, Fraction(0), Fraction(1))
    assert len(ivs) == 1
    assert ivs[0].lo <= Fraction(1, 2) <= ivs[0].hi


def test_isolate_roots_finds_a_root_next_to_an_end_root():
    # y - 4202502*y^2 has roots 0 and 1/4202502 < 2^-20: the root at the end
    # 0 is divided out, not stepped over
    ivs = isolate_roots([Fraction(0), Fraction(1), Fraction(-4202502)], Fraction(0), Fraction(1))
    assert len(ivs) == 1
    assert ivs[0].lo <= Fraction(1, 4202502) <= ivs[0].hi
    # and at the upper end: roots 1 - 1/4202502 and 1
    f = from_roots([Fraction(4202501, 4202502), Fraction(1)])
    ivs = isolate_roots(f, Fraction(0), Fraction(1))
    assert len(ivs) == 1
    assert ivs[0].lo <= Fraction(4202501, 4202502) <= ivs[0].hi


def test_float_root_of_a_cube_root():
    f = [Fraction(-3), Fraction(0), Fraction(0), Fraction(1)]  # y^3 - 3
    (root,) = isolate_roots(f)
    assert abs(float(root) - 3 ** (1 / 3)) < 1e-13


def test_float_root_rounds_a_root_halfway_between_doubles_to_even():
    # 1 + 2^-53 lies halfway between the doubles 1 and 1 + 2^-52, and no
    # halving of (1/2, 7/5) lands on it: the sign there decides, and the
    # tie goes to the even 1.0, as float(Fraction) rounds it
    lo, hi = Fraction(1, 2), Fraction(7, 5)
    assert float(RealRoot((-(2**53 + 1), 2**53), lo, hi, 1)) == 1.0
    # 1 + 3 * 2^-53 ties up, to 1 + 2^-51; the mirror image ties to -1.0
    assert float(RealRoot((-(2**53 + 3), 2**53), lo, hi, 1)) == 1 + 2**-51
    assert float(RealRoot((2**53 + 1, 2**53), -hi, -lo, 1)) == -1.0
    # a double root halfway, where f keeps its sign, carries its simple
    # factor and ties the same way
    f = times([-(2**53 + 1), 2**53], [-(2**53 + 1), 2**53])
    (root,) = isolate_roots(f, lo, hi)
    assert root.multiplicity == 2 and root.g == (-(2**53 + 1), 2**53)
    assert float(root) == 1.0


def test_float_root_past_the_double_range_overflows():
    # 2^-1076 and 2^-1075 have 0.0 as their nearest double, the latter by a
    # tie; 2^-1075 + 2^-1100 rounds up to the least subnormal 2^-1074
    for f in ((-1, 2**1076), (-1, 2**1075)):
        with pytest.raises(OverflowError):
            float(RealRoot(f, Fraction(0), Fraction(1), 1))
        with pytest.raises(OverflowError):
            float(RealRoot(f, Fraction(-1), Fraction(1), 1))
        with pytest.raises(OverflowError):
            float(isolate_roots(list(f))[0])
    f = (-(2**25 + 1), 2**1100)
    assert float(RealRoot(f, Fraction(0), Fraction(1), 1)) == 2.0**-1074
    # and a root past the largest double rounds to infinity
    with pytest.raises(OverflowError):
        float(RealRoot((-(2**1100), 1), Fraction(0), Fraction(2**1101), 1))
    # 0 itself is a root, not an underflow
    assert float(RealRoot((0, 1, 1), Fraction(-1, 3), Fraction(1, 2), 1)) == 0.0


def test_roots_of_two_factors_closer_than_the_width_each_round_alone():
    # sqrt(2 + 10^-30), simple, lies within 10^-12 of sqrt(2), triple: both
    # get one interval, and each is rounded from its own factor's signs
    f = times(times(times([-2, 0, 1], [-2, 0, 1]), [-2, 0, 1]), [-(2 * 10**30 + 1), 0, 10**30])
    roots = isolate_roots(f)
    assert sorted(r.multiplicity for r in roots) == [1, 1, 3, 3]
    assert len({(r.lo, r.hi) for r in roots}) == 2
    assert [abs(float(r)) for r in roots] == [1.4142135623730951] * 4


def test_real_root_sign_is_zero_where_q_shares_the_root():
    # q = y^2 - 2 shares sqrt(2), the one root of g in (0, 2): q changes
    # sign inside every interval around it, so narrowing until q has no
    # root inside would never end; the gcd check answers 0
    root = RealRoot((-2, 0, 1), Fraction(0), Fraction(2), 1)
    assert root.sign([Fraction(-2), Fraction(0), Fraction(1)]) == 0


def test_real_root_sign_on_an_interval_that_starts_on_a_root():
    # y^3 - 2y has roots 0 and sqrt(2) in [0, 2); isolating from the end
    # root 0 can return (0, 2) itself, with 0 divided out of the factor, and
    # q = y - 1 is positive at sqrt(2) though negative at 0
    q = [Fraction(-1), Fraction(1)]
    root = RealRoot((-2, 0, 1), Fraction(0), Fraction(2), 1)
    assert root.sign(q) == 1
    assert root.sign([Fraction(1), Fraction(-1)]) == -1
    (found,) = isolate_roots([0, -2, 0, 1], Fraction(0), Fraction(2), Fraction(2))
    assert found.lo == 0 and _sign_at(found.g, 0, 1) != 0
    assert found.sign(q) == 1


def test_isolated_intervals_are_disjoint_random():
    rng = random.Random(2004)
    for _ in range(30):
        f = [Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(2, 7))]
        f = normalize(f)
        if degree(f) < 1:
            continue
        ivs = isolate_roots(f)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo
        total = sum(iv.multiplicity for iv in ivs)
        bound = cauchy_bound(f)
        sf = [g for g, m in squarefree_decomposition(f)]
        # distinct real root count agrees with the Sturm count over a bound
        distinct = 0
        for g, _ in squarefree_decomposition(f):
            distinct += count_roots(g, -bound, bound)
        assert len(ivs) == distinct
        assert total >= distinct


@st.composite
def polys_with_roots(draw):
    """Random rational polynomial times (y - r) for drawn rational roots r."""
    roots = draw(st.lists(rationals, max_size=3))
    other = draw(st.lists(rationals, min_size=1, max_size=5))
    f = normalize(times(from_roots(roots), other))
    return f or [Fraction(1)], roots


def sign(v):
    return (v > 0) - (v < 0)


@PROPERTY
@given(polys_with_roots(), st.lists(rationals, min_size=1, max_size=4))
def test_sign_kernel_matches_exact_value(case, points):
    f, roots = case
    scaled = _integer_multiple(f)
    for x in points + roots:
        assert _sign_at(scaled, x.numerator, x.denominator) == sign(ueval(f, x))


# -- Fraction-bisection reference for isolate_roots ----------------------
# A small Fraction Euclid and Sturm chain, kept here as the oracle for the
# integer Descartes kernel.


def reference_divmod(num, den):
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(rem) >= len(den) and rem:
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for k, a in enumerate(den):
            rem[shift + k] -= factor * a
        rem = normalize(rem)
    return normalize(quot), rem


def reference_sturm_chain(f):
    chain = [normalize(f), normalize(derivative(f))]
    while chain[-1]:
        _, r = reference_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-a for a in r])
    return [c for c in chain if c]


def reference_variations(chain, x):
    signs = [v > 0 for v in (ueval(c, x) for c in chain) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def reference_refine(g, lo, hi, width):
    flo = ueval(g, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = ueval(g, mid)
        if fm == 0:
            return (mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo, hi)


def reference_isolate_squarefree(g, lo, hi, width):
    # g has no root at lo or hi
    chain = reference_sturm_chain(g)
    out = []
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        n = reference_variations(chain, a) - reference_variations(chain, b)
        if n == 0:
            continue
        if n == 1:
            out.append(reference_refine(g, a, b, width))
            continue
        mid = (a + b) / 2
        step = (b - a) / 64
        while ueval(g, mid) == 0:
            mid += step
            if mid >= b:
                mid = a + step / 7
        work.append((a, mid))
        work.append((mid, b))
    return sorted(out)


def reference_double(g, lo, hi):
    # halve until both ends round alike; rounding is monotone, so the root
    # between them rounds alike too
    flo = ueval(g, lo)
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        fm = ueval(g, mid)
        if fm == 0:
            return float(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return float(lo)


def reference_isolate_roots(f, lo, hi, width):
    """(nearest double, multiplicity, interval width) of each root, open ends at Cauchy's bound."""
    bound = cauchy_bound(f)
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    found = []
    if lo < hi:
        for g, mult in squarefree_decomposition(f):
            # a root at a requested end is outside the open interval: divide it out
            g = [Fraction(a) for a in g]
            for end in (lo, hi):
                if ueval(g, end) == 0:
                    g, _ = reference_divmod(g, [-end, Fraction(1)])
            for a, b in reference_isolate_squarefree(g, lo, hi, Fraction(width)):
                found.append((reference_double(g, a, b), mult, b - a))
    return found


@PROPERTY
@given(
    polys_with_roots(),
    st.one_of(st.none(), rationals),
    st.one_of(st.none(), rationals),
    st.sampled_from([Fraction(1, 10**14), Fraction(1, 2), Fraction(8)]),
)
def test_isolate_roots_matches_fraction_bisection(case, lo, hi, width):
    f, roots = case
    if degree(f) < 1:
        return
    # repeated roots exercise the multiplicities
    f = normalize(times(f, from_roots(roots[:1])))
    got = isolate_roots(f, lo, hi, width=width)
    want = reference_isolate_roots(f, lo, hi, width)
    # the reference's open ends and parts differ, so its intervals do: its
    # roots do not, and both sides' intervals are at most `width` wide
    assert sorted((float(r), r.multiplicity) for r in got) == sorted(w[:2] for w in want)
    assert all(r.hi - r.lo <= width for r in got) and all(w[2] <= width for w in want)
    for r in got:  # each carries a factor of f, with one root in [r.lo, r.hi]
        assert len(subresultant_gcd(f, r.g)) == len(r.g)
        ends = [_sign_at(r.g, e.numerator, e.denominator) for e in (r.lo, r.hi)]
        if r.lo == r.hi:
            assert ends == [0, 0]
        else:
            assert ends[0] * ends[1] < 0 and count_roots(r.g, r.lo, r.hi) == 1



@st.composite
def windows(draw):
    """A polynomial with repeated roots and an open window that often ends on one."""
    f, roots = draw(polys_with_roots())
    for _ in range(draw(st.integers(0, 2))):
        f = times(f, from_roots(roots[:2]))
    ends = st.sampled_from(roots) | rationals if roots else rationals
    lo, hi = sorted((draw(ends), draw(ends)))
    return normalize(f), lo, hi


@PROPERTY
@given(windows(), st.none() | reaches, st.none() | reaches)
def test_a_roots_double_and_multiplicity_do_not_depend_on_its_window(case, below, above):
    # the sub-window (a, b) of a window reaching `below` under a and `above`
    # over b, or open there: the parts differ, the roots in (a, b) do not
    f, a, b = case
    lo = None if below is None else a - below
    hi = None if above is None else b + above
    inside = [r for r in isolate_roots(f, lo, hi) if r.sign([-a, 1]) > 0 > r.sign([-b, 1])]
    got = isolate_roots(f, a, b)
    assert sorted((float(r), r.multiplicity) for r in got) == sorted(
        (float(r), r.multiplicity) for r in inside
    )


def as_sympy(f):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f)]
    return sympy.Poly(coeffs, sympy.Symbol("y"))


@needs_sympy
@PROPERTY
@given(windows())
def test_count_roots_matches_sympy(case):
    f, lo, hi = case
    want = 0
    if lo < hi:
        # sympy counts the distinct roots on the closed interval
        p = as_sympy(f)
        want = p.count_roots(lo, hi) - sum(p.eval(end) == 0 for end in (lo, hi))
    assert count_roots(f, lo, hi) == want


@needs_sympy
@PROPERTY
@given(windows())
def test_squarefree_decomposition_matches_sympy(case):
    f = case[0]
    _, parts = as_sympy(f).clear_denoms(convert=True)[1].sqf_list()
    want = [([int(c) for c in reversed(g.all_coeffs())], m) for g, m in parts]
    assert squarefree_decomposition(f) == sorted(want, key=lambda part: part[1])


# integer polynomials of degree 1-9 whose coefficients span 1 to ~200 bits
int_polys = st.lists(
    st.integers(-(2**200), 2**200) | st.integers(-9, 9), min_size=2, max_size=10
).filter(lambda c: c[-1] != 0)


@PROPERTY
@given(int_polys | polys_with_roots().map(lambda case: _integer_multiple(case[0])))
def test_root_exponent_is_strictly_above_every_root(c):
    assume(degree(c) >= 1)
    top = 2 ** root_exponent(c)
    # every real root: Cauchy's interval holds as many as (-top, top), and
    # neither end is one
    assert ueval(c, top) != 0 and ueval(c, -top) != 0
    assert count_roots(c, -top, top) == len(isolate_roots(c))
    # every complex root too, by Fujiwara's bound itself: 2 * max |c_(n-k)/c_n|^(1/k)
    n = degree(c)
    assert all(abs(Fraction(a, c[-1])) < Fraction(top, 2) ** k for k, a in zip(range(n, 0, -1), c))


@PROPERTY
@given(windows(), st.booleans(), st.booleans())
def test_open_ends_count_as_the_cauchy_bound_does(case, open_lo, open_hi):
    # count_roots takes an open end at the power-of-2 bound: the count is
    # the same at Cauchy's
    f, lo, hi = case
    bound = cauchy_bound(f)
    lo, cauchy_lo = (None, -bound) if open_lo else (lo, lo)
    hi, cauchy_hi = (None, bound) if open_hi else (hi, hi)
    assert count_roots(f, lo, hi) == count_roots(f, cauchy_lo, cauchy_hi)


@PROPERTY
@given(int_polys | polys_with_roots().map(lambda case: _integer_multiple(case[0])))
def test_probe_bracket_proves_a_root_to_float_spacing(c):
    bracket = probe_bracket(normalize(c), 300)
    if bracket is None:
        # an odd degree changes sign past its roots, and the last probes are past them
        assert degree(normalize(c)) % 2 == 0
        return
    lo, hi = bracket
    if lo == hi:
        assert ueval(c, lo) == 0
        return
    assert sign(ueval(c, lo)) * sign(ueval(c, hi)) == -1
    # no float lies strictly between the ends
    assert lo < hi and math.nextafter(float(lo), math.inf) >= float(hi)


@PROPERTY
@given(int_polys | polys_with_roots().map(lambda case: _integer_multiple(case[0])))
def test_float_root_is_the_nearest_double(c):
    # r is the double nearest the root when the root lies between the
    # midpoints from r to its two neighbours: the square-free part of c
    # changes sign between them, or vanishes at one
    c = normalize(c)
    assume(degree(c) >= 1)
    simple = [1]
    for factor, _ in squarefree_decomposition(c):
        simple = times(simple, factor)
    for root in isolate_roots(c):
        r = float(root)
        below, above = (
            (Fraction(r) + Fraction(math.nextafter(r, d))) / 2 for d in (-math.inf, math.inf)
        )
        assert sign(ueval(simple, below)) * sign(ueval(simple, above)) <= 0, (root, r)


def test_probe_bracket_on_the_edge_cases():
    assert probe_bracket([], 300) == (0, 0)  # the zero polynomial: every y is a root
    assert probe_bracket([5], 300) is None
    assert probe_bracket([0, 0, 1], 300) == (0, 0)  # y^2: the first probe
    assert probe_bracket([-4, 0, 1], 300) == (2, 2)  # y^2 - 4: a doubling probe
    assert probe_bracket([1, -6, 9], 300) is None  # (3y - 1)^2: no sign change, no probe root
    # y - 2^100 - 1 is found between 2^100 and 2^101, just above 2^100
    lo, hi = probe_bracket([-(2**100) - 1, 1], 300)
    assert lo <= 2**100 + 1 <= hi and hi - lo == 2 ** (100 - 52)
    # 2^40 y - 1: its root is a midpoint of the halving of (0, 1), exactly
    assert probe_bracket([-1, 2**40], 300) == (Fraction(1, 2**40),) * 2
    # 3 * 2^40 y - 1: (0, 1) halves until its lower end leaves 0, then to
    # the float spacing there, 2^-94
    lo, hi = probe_bracket([-1, 3 * 2**40], 300)
    assert 0 < lo < Fraction(1, 3 * 2**40) < hi and hi - lo == Fraction(1, 2**94)
    # the reach: a root past 2^64 is not probed for, and one below 2^-64 is
    # halved to 2^-117, not to the float spacing there
    assert probe_bracket([-(2**70) - 1, 1], 64) is None
    lo, hi = probe_bracket([-1, 3 * 2**80], 64)
    assert 0 < lo < Fraction(1, 3 * 2**80) < hi and hi - lo == Fraction(1, 2**117)


def bisected_bracket(c, top):
    """probe_bracket with every sign-change pair halved by ``_bisect``."""
    if len(c) < 2:
        return None if c else (Fraction(0), Fraction(0))

    def wide(a, b, den):
        near, width = (a if a >= 0 else -b), b - a
        finest = (width << (top + 53)) <= den
        return not finest and (not near or width.bit_length() + 52 > near.bit_length())

    probes = [0] + [side << k for k in range(min(root_exponent(c), top) + 1) for side in (1, -1)]
    signs = {y: sign(ueval(c, y)) for y in probes}
    for y in probes:
        if not signs[y]:
            return (Fraction(y), Fraction(y))
        inner = y // 2 if abs(y) > 1 else 0
        if y and signs[y] != signs[inner]:
            lo, hi = sorted((inner, y))
            return _bisect(c, Fraction(lo), Fraction(hi), wide)
    return None


def bisected_float(root):
    """float(root) by halving its interval to the float spacing."""
    g, lo, hi = root.g, root.lo, root.hi
    if lo != hi:

        def wide(a, b, d):
            t = _half_spacing(a if a > 0 else max(-b, 0), d)
            return ((b - a) << -t > d) if t < 0 else (b - a > d << t)

        lo, hi = _bisect(g, lo, hi, wide)
        near = max(lo, -hi, 0)
        h = Fraction(2) ** _half_spacing(near.numerator, near.denominator)
        m = (math.floor(lo / h) + 1) * h
        if m < hi:
            s = _sign_at(g, m.numerator, m.denominator) * _sign_at(g, lo.numerator, lo.denominator)
            lo, hi = (m, hi) if s > 0 else (lo, m) if s < 0 else (m, m)
    r = (lo + hi) / 2
    x = float(r)  # OverflowError past the largest double
    if not x and r:
        raise OverflowError("rounds to 0")
    return x


def float_or_overflow(f, *args):
    try:
        return repr(f(*args))
    except OverflowError:
        return "OverflowError"


def root_cases(rng):
    """Integer polynomials whose roots sit where the float answer is delicate."""

    def linear(r):  # den * y - num
        r = Fraction(r)
        return [-r.numerator, r.denominator]

    def binade(e):  # a random non-dyadic point of [2^e, 2^(e + 1))
        return Fraction(2) ** e * (1 + Fraction(rng.randrange(1, 3**40), 3**40))

    cases = []
    for e in (0, 1, 5, 40, 63, -1, -20, -64, -65, -66, -200):
        cases.append(linear(binade(e)))
        cases.append(linear(-binade(e)))
        # dyadic roots: a midpoint of the halvings, returned as (r, r)
        dyadic = Fraction(2) ** e * (1 + Fraction(rng.randrange(1, 2**52), 2**52))
        cases.append(linear(dyadic))
        cases.append(_integer_multiple(times(linear(dyadic), [1, 0, 1])))
        # ties: halfway between two neighbouring doubles
        cases.append(linear(dyadic + Fraction(2) ** (e - 53)))
        # an irrational root of a quadratic in that binade
        r2 = binade(e)
        cases.append(_integer_multiple([-r2 * r2 - Fraction(1, 7 * 2**60) * r2 * r2, 0, 1]))
    for e in (-1074, -1075, -1076, -1080, 1023, 1024, 1030):
        cases.append(linear(Fraction(2) ** e))
        cases.append(linear(Fraction(2) ** e * Fraction(4, 3)))
    # subnormal roots, spaced 2^-1074 where the halvings go on finer; the
    # least denominators keep the coefficients within the float range
    for k in (3, 5, 7):
        cases.append(linear(Fraction(1, k * 2**1021)))
    for e in (-1030, -1070):
        cases.append(linear(binade(e)))
    # coefficients past 2^1024
    cases.append([-(2**1100) * 7, 2**1100 * 5])
    cases.append([-(2**1100) - 1, 0, 2**1000])
    # three roots in one doubling pair, and three closer than the float spacing
    cases.append(_integer_multiple(from_roots([Fraction(10, 9), Fraction(4, 3), Fraction(5, 3)])))
    near = Fraction(3, 2)
    cases.append(
        _integer_multiple(from_roots([near - Fraction(1, 2**60), near, near + Fraction(1, 2**58)]))
    )
    cases.append(_integer_multiple(from_roots([Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])))
    # random integer polynomials
    for _ in range(150):
        n = rng.randint(1, 9)
        bits = rng.randint(1, 70)
        cases.append(normalize([rng.randint(-(2**bits), 2**bits) for _ in range(n + 1)]))
    return [c for c in cases if len(c) >= 2]


def test_probe_bracket_and_float_root_match_the_halvings():
    # the neighbouring doubles found from a float guess are what the
    # halvings give, at the edges of the float range and of the reach too
    rng = random.Random(38)
    for c in root_cases(rng):
        for top in (64, 1100):
            assert probe_bracket(c, top) == bisected_bracket(c, top), (c, top)
        for root in isolate_roots(c):
            want = float_or_overflow(bisected_float, root)
            assert float_or_overflow(float, root) == want, (c, root)


def test_probe_bracket_returns_a_double_root_and_the_bisections_root_of_three():
    # 3 * 2^-2 + 2^-52 is a double: (r, r), as its midpoint is
    r = Fraction(3, 4) + Fraction(1, 2**52)
    assert probe_bracket([-r.numerator, r.denominator], 64) == (r, r)
    # three roots in (1, 2): Descartes' rule does not say one, and the
    # halvings pick the root their midpoints lead to, 91/50, where the
    # guess from the midpoint 3/2 finds 151/100
    c = _integer_multiple(from_roots([Fraction(151, 100), Fraction(8, 5), Fraction(91, 50)]))
    lo, hi = probe_bracket(c, 64)
    assert lo < Fraction(91, 50) < hi and (lo, hi) == bisected_bracket(c, 64)


@pytest.mark.parametrize("top", [64, 1100])
def test_probe_bracket_takes_the_neighbours_only_where_the_halvings_end_on_them(
    monkeypatch, top
):
    # with the exact neighbouring doubles of each root given, the answer is
    # still the halvings': below 2^-(top + 1) and among the subnormals they
    # end on a cell finer or wider than the float spacing
    def exact_neighbours(g, lo, hi, slo):
        r = Fraction(-g[0], g[1])
        x = float(r)
        if Fraction(x) == r:
            return (r, r)
        y = math.nextafter(x, math.inf if Fraction(x) < r else -math.inf)
        return tuple(sorted((Fraction(x), Fraction(y))))

    halved = []

    def counted(*args):
        halved.append(args)
        return _bisect(*args)

    monkeypatch.setattr(univariate, "_nearest_doubles", exact_neighbours)
    monkeypatch.setattr(univariate, "_bisect", counted)
    for e in (-60, -64, -65, -66, -70, -1000, -1021, -1022, -1023, -1030, -1060):
        for r in (Fraction(2) ** e * k for k in (1, Fraction(4, 3), Fraction(3, 5))):
            c = [-r.numerator, r.denominator]
            halved.clear()
            assert probe_bracket(c, top) == bisected_bracket(c, top), (r, top)
            # the halvings run exactly where r's lower neighbour is below the edge
            x = float(r)
            near = Fraction(math.nextafter(x, 0) if Fraction(x) > r else x)
            assert bool(halved) == (near < Fraction(1, 2 ** min(top + 1, 1022))), (r, top)


def test_nearest_doubles_reads_no_sign_outside_its_interval():
    # g has roots 1 - 2^-60, 1 + 2^-60 and 1 + 2^-57, the last one alone in
    # (lo, hi), where no double lies: the guess 1.0 is outside, and its sign
    # would send the walk down, across 1 - 2^-60
    g = _integer_multiple(
        from_roots([1 - Fraction(1, 2**60), 1 + Fraction(1, 2**60), 1 + Fraction(1, 2**57)])
    )
    lo, hi = 1 + Fraction(1, 2**58), 1 + Fraction(1, 2**56)
    slo = _sign_at(g, lo.numerator, lo.denominator)
    assert _nearest_doubles(g, lo, hi, slo) is None
    assert float(RealRoot(tuple(g), lo, hi, 1)) == 1.0


def test_probe_bracket_reads_few_exact_signs_past_its_probes(monkeypatch):
    # sqrt(2) in (1, 2): the probes 0, 1, -1 and 2, then the guess and its
    # neighbours, where halving to the float spacing takes 52 signs
    calls = []

    def counted(c, n, d):
        calls.append(Fraction(n, d))
        return _sign_at(c, n, d)

    monkeypatch.setattr(univariate, "_sign_at", counted)
    lo, hi = probe_bracket([-2, 0, 1], 64)
    assert lo < hi and math.sqrt(2) in (float(lo), float(hi))
    assert calls[:4] == [0, 1, -1, 2]
    assert len(calls) - 4 <= 6


@PROPERTY
@given(polys_with_roots())
def test_no_interval_straddles_zero_when_zero_is_no_root(case):
    # isolation splits (-B, B) at 0 first, as ``branch_candidates`` relies on
    f, _ = case
    assume(degree(f) >= 1 and f[0] != 0)
    assert not any(iv.lo < 0 < iv.hi for iv in isolate_roots(f, width=DEFAULT_WIDTH))


@needs_sympy
def test_high_degree_barrier_resultant_is_isolated_exactly():
    # E_t0 = Res_y(p - t0, p_y) at the barrier of this tongue's profile at
    # x0 = 1 has degree 70, ~300-bit coefficients and one simple root past
    # x0: a kernel test of high-degree isolation against sympy
    p = parse_polynomial("y + x^7*y^9 + y^10 + x^3*y^5 + x^2*y^7 + x*y^6")
    transform, flipped = region_orientation(p, corollary_certificate(p))
    p = apply_transform(p, transform) * (-1 if flipped else 1)
    x0 = Fraction(1)
    h = p.restricted_to_x(x0)
    t0 = restriction_profile(h, x0, isolate_roots(h, Fraction(0))[0]).t0
    e = resultant_y(p - t0, p.partial_derivative("y"))
    assert degree(e) == 70
    assert [(degree(g), m) for g, m in squarefree_decomposition(e)] == [(70, 1)]
    assert as_sympy(e).is_sqf
    (iv,) = isolate_roots(e, x0, Fraction(2**18), Fraction(1, 10**14))
    assert iv.multiplicity == 1 and 0 < iv.hi - iv.lo <= Fraction(1, 10**14)
    assert ueval(e, iv.lo) * ueval(e, iv.hi) < 0
    ends = [as_sympy(e).eval(end) for end in (iv.lo, iv.hi)]
    assert ends[0] * ends[1] < 0
    ((a, b), mult), = as_sympy(e).intervals(inf=x0, sup=2**18)
    assert mult == 1 and a <= iv.lo and iv.hi <= b


# -- resultant ------------------------------------------------------------------


def sylvester(f, g, m, n):
    """Res_(m,n)(f, g) as sympy's determinant of the explicit Sylvester matrix."""
    sympy = pytest.importorskip("sympy")
    f, g = ([sympy.Rational(a.numerator, a.denominator) for a in reversed(c)] for c in (f, g))
    f, g = [0] * (m + 1 - len(f)) + f, [0] * (n + 1 - len(g)) + g
    rows = [[0] * k + f + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + g + [0] * (m - 1 - k) for k in range(m)]
    det = sympy.Matrix(m + n, m + n, [a for row in rows for a in row]).det(method="bird")
    return Fraction(int(det.p), int(det.q))


def resultant_cases(rng, count):
    # (f, g, m, n) at formal degrees up to 6: a third of the lists have a
    # random length, so they may be empty, short or end in zeros, and a
    # quarter of the pairs share a linear factor
    def coefficients(k):
        if rng.random() < 1 / 3:
            return [rng.randint(-9, 9) for _ in range(rng.randint(0, k + 1))]
        return [rng.randint(-9, 9) for _ in range(k)] + [rng.choice([-3, -2, -1, 1, 2, 3])]

    for _ in range(count):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        f, g = coefficients(m), coefficients(n)
        if m and n and rng.random() < 0.25:
            factor = [rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])]
            f, g = ([int(a) for a in times(c[:k], factor)] if c else c for c, k in ((f, m), (g, n)))
        yield f, g, m, n


def test_resultant_matches_the_sylvester_determinant():
    seen = dict.fromkeys(["drop", "zero", "diagonal", "shared", "odd swap"], 0)
    for f, g, m, n in resultant_cases(random.Random(36), 2400):
        want = sylvester(f, g, m, n)
        assert resultant(f, g, m, n) == want, (f, g, m, n)
        d, e = degree(normalize(f)), degree(normalize(g))
        seen["drop"] += d < m or e < n
        seen["zero"] += min(d, e) < 0
        seen["diagonal"] += not m or not n
        seen["shared"] += d == m > 0 and e == n > 0 and not want
        seen["odd swap"] += d == m < e == n and m % 2 == n % 2 == 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize(
    "f, g, m, n, want",
    [
        ([], [], 0, 0, 1),  # the empty matrix
        ([5], [7], 0, 0, 1),
        ([3], [1, 2, 3], 0, 2, 9),  # f0^n
        ([2], [], 0, 2, 4),  # f0^n with g = 0 in its rows
        ([], [2], 3, 0, 8),  # g0^m for any f, the zero polynomial too
        ([1, 2, 3], [-2], 2, 0, 4),
        ([1, 1], [1, 1], 1, 1, 0),  # the root -1 shared
        ([1, 0], [2, 1], 1, 1, -1),  # f's top missing: (-1)^1 * 1 * Res_0,1(1, g)
        ([1, 0], [2, 0], 1, 1, 0),  # both tops missing: a zero column
        ([0, 1], [-1, 0, 0, 1], 1, 3, -1),  # y against y^3 - 1: g(0)
        ([-1, 0, 0, 1], [0, 1], 3, 1, 1),  # swapped, odd x odd: the sign flips
    ],
)
def test_resultant_at_its_edge_cases(f, g, m, n, want):
    assert resultant(f, g, m, n) == want
    assert sylvester(f, g, m, n) == want


# -- resultant by interpolation -----------------------------------------------

bivariate = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)), st.integers(-4, 4), max_size=5
).map(BivariatePolynomial)


@PROPERTY
@given(
    bivariate,
    bivariate,
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9), max_size=4),
)
def test_interpolated_resultant_matches_sylvester_off_the_nodes(f, g, points):
    assume(not f.is_zero and not g.is_zero)
    res = resultant_y(f, g)
    m, n = f.degree_y(), g.degree_y()
    # the interpolation nodes are 0, 1, 2, ...; a non-integer is never one
    for x in [r for r in points if r.denominator > 1] + [Fraction(-1, 2)]:
        assert ueval(res, x) == sylvester(f.restricted_to_x(x), g.restricted_to_x(x), m, n)


def fraction_interpolate(values):
    """Newton interpolation at 0, 1, 2, ... over the rationals: a reference."""
    coef = [Fraction(v) for v in values]
    for level in range(1, len(coef)):
        for k in range(len(coef) - 1, level - 1, -1):
            coef[k] = (coef[k] - coef[k - 1]) / level
    out = []
    for k in reversed(range(len(coef))):
        out = [a - k * b for a, b in zip([coef[k]] + out, out + [0])]
    return normalize(out)


# total degree at most 3 with degree 3 in each variable reachable: the
# bound n*d + m*e - m*n is below n*deg_x f + m*deg_x g whenever m*n > 0
low_total_degree = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) <= 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=2,
    max_size=6,
).map(BivariatePolynomial)


@PROPERTY
@given(low_total_degree, low_total_degree)
def test_resultant_y_needs_no_node_past_the_total_degree_bound(f, g):
    m, n = f.degree_y(), g.degree_y()
    d, e = (max(i + j for i, j in h.support()) for h in (f, g))
    by_x = n * f.degree_x() + m * g.degree_x()
    by_total = n * d + m * e - m * n
    assume(by_total < by_x)
    # the interpolant through the nodes of the x-degree bound
    want = fraction_interpolate(
        [sylvester(f.restricted_to_x(k), g.restricted_to_x(k), m, n) for k in range(by_x + 1)]
    )
    assert resultant_y(f, g) == want
    assert degree(want) <= by_total


def test_interpolate_recovers_a_polynomial():
    f = [3, -7, 0, 2]
    assert interpolate([int(ueval(f, k)) for k in range(6)]) == f
    assert interpolate([0] * 3) == []


@pytest.mark.parametrize(
    "values",
    [
        [0, 0, 1],  # x(x - 1)/2: integer-valued, not in Z[x]
        [0, 1, 3, 7],  # 2^x - 1: its Delta^2 = 1 is no multiple of 2!
    ],
)
def test_interpolate_refuses_values_of_no_integer_polynomial(values):
    with pytest.raises(ValueError, match="Z\\[x\\]"):
        interpolate(values)


RESULTANT_CASES = [
    "y + x*y^2 + y^4",
    "y + x*y^3",
    "y + y^2 + x*y^3",
    "y + x^2*y^2",
    "y + y^3 + x^2*y^2",
    "y + y^2 + y^3 + x^2*y^2",
    "x + x^2*y",
    "y - (x^2 - 4*x + 6)*y^2",
    "y + x*y^2 + (y + x*y^2)^2",  # partials share the factor 1 + 2u
]


@pytest.mark.parametrize("text", RESULTANT_CASES)
def test_critical_resultant_matches_sympy(text):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    p = parse_polynomial(text)
    px, py = p.partial_derivative("x"), p.partial_derivative("y")
    as_sympy = [sympy.sympify(str(d).replace("^", "**")) for d in (px, py)]
    want = sympy.Poly(sympy.resultant(*as_sympy, y), x).all_coeffs()[::-1]
    want = normalize([Fraction(int(c.p), int(c.q)) for c in want])
    assert resultant_y(px, py) == want
