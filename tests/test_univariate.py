import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jacmate.poly import BivariatePolynomial, parse_polynomial
from jacmate.tongue import _critical_resultant
from jacmate.univariate import (
    DEFAULT_WIDTH,
    RootInterval,
    _integer_multiple,
    _sign_at,
    count_roots,
    degree,
    derivative,
    float_root,
    interpolate,
    isolate_roots,
    normalize,
    poly_divmod,
    poly_gcd,
    resultant,
    root_bound,
    squarefree_decomposition,
    sturm_chain,
    ueval,
)

# deterministic examples, no example database in the tree
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def from_roots(roots):
    # prod (y - r) over the given rational roots, ascending coefficients
    f = [Fraction(1)]
    for r in roots:
        f = [Fraction(0)] + f
        for k in range(len(f) - 1):
            f[k] -= r * f[k + 1]
    return f


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


def test_divmod_identity():
    rng = random.Random(2001)
    for _ in range(100):
        f = [Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))]
        g = normalize([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 5))])
        if not g:
            continue
        q, r = poly_divmod(f, g)
        lhs = normalize(f)
        prod = [Fraction(0)] * (len(q) + len(g))
        for i, a in enumerate(q):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        for i, c in enumerate(r):
            prod[i] += c
        assert normalize(prod) == lhs
        assert degree(r) < degree(g)


def test_gcd_recovers_common_factor():
    a = from_roots([Fraction(1), Fraction(2)])
    b = from_roots([Fraction(1), Fraction(-3)])
    g = poly_gcd(a, b)
    # monic gcd is exactly (y - 1)
    assert g == [Fraction(-1), Fraction(1)]


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


def test_sturm_chain_signs_count_roots():
    f = from_roots([Fraction(-1), Fraction(0), Fraction(3, 2)])
    chain = sturm_chain(f)
    assert chain[0] == normalize(f)
    assert count_roots(f, Fraction(-10), Fraction(10)) == 3
    assert count_roots(f, Fraction(0), Fraction(2)) == 1  # open: root at 0 excluded
    assert count_roots(f, Fraction(1), Fraction(2)) == 1
    assert count_roots(f, Fraction(2), Fraction(10)) == 0


def test_root_bound_dominates_roots():
    rng = random.Random(2002)
    for _ in range(60):
        roots = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
        f = from_roots(roots)
        bound = root_bound(f)
        assert all(abs(r) < bound for r in roots)


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


def test_float_root_polish():
    f = [Fraction(-3), Fraction(0), Fraction(0), Fraction(1)]  # y^3 - 3
    (iv,) = isolate_roots(f)
    r = float_root(f, iv)
    assert abs(r - 3 ** (1 / 3)) < 1e-13


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
        bound = root_bound(f)
        sf = [g for g, m in squarefree_decomposition(f)]
        # distinct real root count agrees with the Sturm count over a bound
        distinct = 0
        for g, _ in squarefree_decomposition(f):
            distinct += count_roots(g, -bound, bound)
        assert len(ivs) == distinct
        assert total >= distinct


def times(f, g):
    prod = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            prod[i + j] += a * b
    return prod


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
    chain = sturm_chain(g)
    out = []
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        if ueval(g, a) == 0 or ueval(g, b) == 0:
            shift = (b - a) / 2**20
            if ueval(g, a) == 0:
                a += shift
            if ueval(g, b) == 0:
                b -= shift
            if a >= b:
                continue
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


def reference_isolate_roots(f, lo, hi, width):
    bound = root_bound(f)
    lo = -bound if lo is None else lo
    hi = bound if hi is None else hi
    found = []
    if lo < hi:
        for g, mult in squarefree_decomposition(f):
            for a, b in reference_isolate_squarefree(g, lo, hi, Fraction(width)):
                found.append(RootInterval(a, b, mult))
    return sorted(found, key=lambda r: (r.lo, r.hi))


@PROPERTY
@given(
    polys_with_roots(),
    st.one_of(st.none(), rationals),
    st.one_of(st.none(), rationals),
)
def test_isolate_roots_matches_fraction_bisection(case, lo, hi):
    f, roots = case
    if degree(f) < 1:
        return
    # repeated roots exercise the multiplicities
    f = normalize(times(f, from_roots(roots[:1])))
    got = isolate_roots(f, lo, hi, width=1e-14)
    assert got == reference_isolate_roots(f, lo, hi, 1e-14)


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
    res = _critical_resultant(f, g)
    m, n = f.degree_y(), g.degree_y()
    # the interpolation nodes are 0, 1, 2, ...; a non-integer is never one
    for x in [r for r in points if r.denominator > 1] + [Fraction(-1, 2)]:
        want = resultant(f.restricted_to_x(x), g.restricted_to_x(x), m, n)
        assert ueval(res, x) == want


def test_interpolate_recovers_a_polynomial():
    f = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2)]
    assert interpolate([ueval(f, k) for k in range(6)]) == f
    assert interpolate([Fraction(0)] * 3) == []


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
    assert _critical_resultant(px, py) == want
