import ast
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacmate.falsifier import ZeroWitness, find_jacobian_zero, random_trials
from jacmate.poly import (
    ALL_TRANSFORMS,
    COMPILE_AFTER,
    IDENTITY,
    NEGATE_X,
    NEGATE_Y,
    SWAP,
    BivariatePolynomial,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_TERMS,
    EmptyInput,
    InputTooLarge,
    NonNaturalExponent,
    ParseError,
    apply_transform,
    compose_transforms,
    evaluate_on_grid,
    jacobian,
    parse_polynomial,
    _horner_plan,
    _plan_source,
    subtract_constant,
)

X = BivariatePolynomial.variable("x")
Y = BivariatePolynomial.variable("y")


def random_poly(rng, max_degree=4, bound=9):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree)
        terms[(i, j)] = Fraction(rng.randint(-bound, bound))
    return BivariatePolynomial(terms)


def test_parse_simple_forms():
    assert parse_polynomial("x") == X
    assert parse_polynomial("y") == Y
    assert parse_polynomial("3") == BivariatePolynomial.constant(3)
    assert parse_polynomial("-x") == -X
    assert parse_polynomial("x*y") == X * Y
    assert parse_polynomial("2*x^3*y^2") == BivariatePolynomial({(3, 2): Fraction(2)})
    assert parse_polynomial("x^0") == BivariatePolynomial.constant(1)


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2*x + 1/4*y")
    assert p.coefficient((1, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 1)) == Fraction(1, 4)


def test_parse_rejects_implicit_products():
    # factors must be joined with an explicit '*'
    with pytest.raises(ParseError):
        parse_polynomial("xy")
    with pytest.raises(ParseError):
        parse_polynomial("2x")


def test_parse_parentheses_and_products():
    p = parse_polynomial("x*(1 + x*y)")
    assert p == X + X * X * Y
    q = parse_polynomial("(x + y)^2")
    assert q == X * X + 2 * X * Y + Y * Y


def test_parse_matches_hand_expansion():
    p = parse_polynomial("(x*y - 1)*(x^2*y - 1)")
    expected = BivariatePolynomial(
        {(3, 2): Fraction(1), (1, 1): Fraction(-1), (2, 1): Fraction(-1), (0, 0): Fraction(1)}
    )
    assert p == expected


def test_parse_errors_carry_position():
    with pytest.raises(EmptyInput):
        parse_polynomial("   ")
    with pytest.raises(ParseError) as info:
        parse_polynomial("x +")
    assert info.value.position == 3
    with pytest.raises(ParseError):
        parse_polynomial("x + * y")
    with pytest.raises(ParseError):
        parse_polynomial("(x + y")
    with pytest.raises(NonNaturalExponent):
        parse_polynomial("x^-2")
    with pytest.raises(ParseError):
        parse_polynomial("y^(1/2)")


def test_str_is_canonical_and_reparses():
    rng = random.Random(1001)
    for _ in range(200):
        p = random_poly(rng)
        assert parse_polynomial(str(p)) == p


def test_str_formatting():
    p = parse_polynomial("y - x^2*y^2")
    assert str(p) == "-x^2*y^2 + y"
    assert str(BivariatePolynomial.zero()) == "0"
    assert str(parse_polynomial("x - 1")) == "x - 1"


def test_arithmetic_ring_identities():
    rng = random.Random(1002)
    for _ in range(100):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero
        assert a + BivariatePolynomial.zero() == a


def test_power_matches_repeated_product():
    p = parse_polynomial("1 + x*y")
    assert p**3 == p * p * p
    assert p**0 == BivariatePolynomial.constant(1)


def test_evaluate_exact_vs_float():
    rng = random.Random(1003)
    for _ in range(100):
        p = random_poly(rng)
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        exact = p.evaluate(x, y)
        approx = p.evaluate_approx(float(x), float(y))
        scale = max(1.0, abs(float(exact)))
        assert abs(float(exact) - approx) <= 1e-9 * scale


def test_evaluate_approx_overflow_is_inf():
    p = parse_polynomial("x^9")
    assert p.evaluate_approx(1e300, 0.0) == math.inf


def rowwise_horner(p, x, y):
    """The per-call row loop evaluate_approx replaced, kept as its reference."""
    rows = {}
    for (i, j), c in p.terms.items():
        rows.setdefault(j, []).append((i, float(c)))

    def horner_row(row):
        acc = 0.0
        prev_i = None
        for i, c in sorted(row, reverse=True):
            if prev_i is not None:
                acc *= x ** (prev_i - i)
            acc += c
            prev_i = i
        if prev_i is not None:
            acc *= x**prev_i
        return acc

    try:
        acc = 0.0
        prev_j = None
        for j in sorted(rows, reverse=True):
            if prev_j is not None:
                acc *= y ** (prev_j - j)
            acc += horner_row(rows[j])
            prev_j = j
        if prev_j is not None:
            acc *= y**prev_j
        return acc
    except OverflowError:
        return math.inf


sparse_polys = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    max_size=10,
).map(BivariatePolynomial)
points = st.floats(allow_nan=False, allow_infinity=False) | st.floats(-4, 4)


def assert_matches_row_loop(p, x, y):
    got, want = p.evaluate_approx(x, y), rowwise_horner(p, x, y)
    if want == math.inf and got != math.inf:
        # a power overflowed, so the row loop gave up; the value is exact
        assert got == exact_as_float(p, x, y)
        return
    # hex() tells -0.0 from 0.0 and matches nan with nan
    assert got.hex() == want.hex()


def hot(p):
    """p after COMPILE_AFTER float evaluations: its plan now runs compiled."""
    for _ in range(COMPILE_AFTER):
        p.evaluate_approx(0.5, 0.25)
    assert callable(p._plan)
    return p


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sparse_polys, st.lists(st.tuples(points, points), min_size=1, max_size=8))
def test_evaluate_approx_is_bit_identical_to_row_loop(p, xys):
    for x, y in xys:
        assert_matches_row_loop(p, x, y)
    assert isinstance(p._plan, list)  # still on the loop


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sparse_polys, st.lists(st.tuples(points, points), min_size=1, max_size=8))
# -0.0 from y = -0.0, but 0.0 + -0.0 from x = -0.0; nan from inf - inf,
# products overflowing with no power that does; the exact fallback when
# x**2 overflows
@example(parse_polynomial("y"), [(1.0, -0.0)])
@example(parse_polynomial("x*y"), [(-0.0, 1.0)])
@example(parse_polynomial("x^2*y + x*y - x^2 - x"), [(1e300, 1.0)])
@example(parse_polynomial("x^2*y + 1"), [(1e200, -1e-300), (1e200, 1e-200)])
def test_compiled_plan_is_bit_identical_to_row_loop(p, xys):
    hot(p)
    for x, y in xys:
        assert_matches_row_loop(p, x, y)


def test_compiled_plan_gives_signed_zero_and_nan():
    assert hot(parse_polynomial("y")).evaluate_approx(1.0, -0.0).hex() == "-0x0.0p+0"
    p = hot(parse_polynomial("x^2*y + x*y - x^2 - x"))
    assert math.isnan(p.evaluate_approx(1e300, 1.0))


def test_largest_plans_compile_and_match():
    # one row of the largest degree, and the most terms, the parser allows;
    # as one nested expression either would exceed CPython's parser limits
    row = BivariatePolynomial(
        {(i, 3): Fraction((-1) ** i * (i + 1), 7) for i in range(MAX_DEGREE + 1)}
    )
    grid = BivariatePolynomial(
        {(i, j): Fraction(2 * (i - j) + 1, 3 + i) for i in range(32) for j in range(32)}
    )
    assert len(grid.support()) == MAX_TERMS
    for p in (row, grid):
        hot(p)
        for x, y in ((0.99, -1.01), (-1.5, 0.5), (3.0, 2.0), (1e-3, 7.0), (-2.0, -0.0)):
            assert_matches_row_loop(p, x, y)


def test_compiled_overflow_falls_back_to_the_exact_sign():
    p = hot(parse_polynomial("x^3*y - 2*x + 1"))
    for x in (1e200, -1e200):
        assert p.evaluate_approx(x, 1.0) == math.copysign(math.inf, x)


def test_falsifier_hits_compile_nothing(compiled_plans, p1, p3):
    # the descent to the tangential zero of Jac(p1, y) = y^2
    assert isinstance(find_jacobian_zero(p1, Y), ZeroWitness)
    # twenty sampled mates, as certify --falsify 20 draws them
    assert random_trials(p3, 20, seed=1).witness_rate == 1.0
    assert compiled_plans == []


# The compiled source may hold nothing but these nodes
PLAN_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.AugAssign,
    ast.Return, ast.BinOp, ast.Add, ast.Mult, ast.Pow, ast.UnaryOp, ast.USub,
    ast.Name, ast.Load, ast.Store, ast.Constant,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        st.builds(Fraction, st.integers(-(2**1000), 2**1000), st.integers(1, 2**1100)),
        max_size=12,
    ).map(BivariatePolynomial)
)
def test_plan_source_holds_only_finite_floats(p):
    # no input text reaches exec: only the four names, finite float
    # constants and int exponents, with no call or attribute
    tree = ast.parse(_plan_source(*_horner_plan(p._num, p._den)))
    exponents = set()
    for node in ast.walk(tree):
        assert isinstance(node, PLAN_NODES), ast.dump(node)
        if isinstance(node, ast.arguments):
            assert [a.arg for a in node.args] == ["x", "y"]
        elif isinstance(node, ast.Name):
            assert node.id in {"x", "y", "a", "h"}
        elif isinstance(node, ast.UnaryOp):
            assert isinstance(node.operand, ast.Constant) and type(node.operand.value) is float
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            assert isinstance(node.left, ast.Name) and node.left.id in {"x", "y"}
            exponents.add(id(node.right))
        elif isinstance(node, ast.Constant):
            if type(node.value) is int:
                assert id(node) in exponents and node.value >= 2
            else:
                assert type(node.value) is float and math.isfinite(node.value)


def test_overflowing_coefficient_never_reaches_the_source():
    # n / den raises rather than round to inf, so the plan is never built
    with pytest.raises(OverflowError):
        _horner_plan({(1, 0): 2**1100}, 1)


def exact_as_float(p, x, y):
    # the exact value rounded to a float, or an infinity of its sign
    exact = p.evaluate(x, y)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def test_evaluate_approx_zero_and_overflow():
    assert BivariatePolynomial.zero().evaluate_approx(3.0, -2.0).hex() == (0.0).hex()
    # an overflowing power falls back to the exact value, keeping its sign
    p = parse_polynomial("x^3*y - 2*x + 1")
    for x in (1e200, -1e200):
        assert p.evaluate_approx(x, 1.0) == math.copysign(math.inf, x)
        assert rowwise_horner(p, x, 1.0) == math.inf
    # x^200 overflows on its own, the value 1e-200 does not
    assert parse_polynomial("x^200*y^2").evaluate_approx(1e2, 1e-300) == 1e-200


def test_degrees_and_support():
    p = parse_polynomial("y + x^2*y^2")
    assert p.degree_x() == 2
    assert p.degree_y() == 2
    assert set(p.support()) == {(0, 1), (2, 2)}


def test_restricted_to_x_gives_ascending_coefficients():
    p = parse_polynomial("y + x^2*y^2")
    h = p.restricted_to_x(Fraction(2))
    assert h == [Fraction(0), Fraction(1), Fraction(4)]


def test_partial_derivatives():
    p = parse_polynomial("x^3*y + 2*x*y^2")
    assert p.partial_derivative("x") == parse_polynomial("3*x^2*y + 2*y^2")
    assert p.partial_derivative("y") == parse_polynomial("x^3 + 4*x*y")


def test_derivative_matches_finite_differences():
    rng = random.Random(1004)
    h = 1e-6
    for _ in range(50):
        p = random_poly(rng, max_degree=3, bound=5)
        px = p.partial_derivative("x")
        x = rng.uniform(-2, 2)
        y = rng.uniform(-2, 2)
        num = (p.evaluate_approx(x + h, y) - p.evaluate_approx(x - h, y)) / (2 * h)
        sym = px.evaluate_approx(x, y)
        assert abs(num - sym) <= 1e-4 * max(1.0, abs(sym))


def test_jacobian_of_coordinates():
    assert jacobian(X, Y) == BivariatePolynomial.constant(1)
    assert jacobian(Y, X) == BivariatePolynomial.constant(-1)


def test_jacobian_antisymmetry_and_additivity():
    rng = random.Random(1005)
    for _ in range(50):
        p, q, r = (random_poly(rng, max_degree=3) for _ in range(3))
        assert jacobian(p, q) + jacobian(q, p) == BivariatePolynomial.zero()
        assert jacobian(p, q + r) == jacobian(p, q) + jacobian(p, r)
        assert jacobian(p, p).is_zero


def test_transform_composition_table():
    assert compose_transforms(SWAP, SWAP) == IDENTITY
    assert compose_transforms(NEGATE_X, NEGATE_X) == IDENTITY
    for t in ALL_TRANSFORMS:
        assert any(compose_transforms(t, u) == IDENTITY for u in ALL_TRANSFORMS)
        assert compose_transforms(IDENTITY, t) == t


def test_apply_transform_is_substitution():
    rng = random.Random(1006)
    for _ in range(60):
        p = random_poly(rng)
        t = rng.choice(ALL_TRANSFORMS)
        x = Fraction(rng.randint(-9, 9))
        y = Fraction(rng.randint(-9, 9))
        m = t.matrix()
        tx = m[0][0] * x + m[0][1] * y
        ty = m[1][0] * x + m[1][1] * y
        assert apply_transform(p, t).evaluate(x, y) == p.evaluate(tx, ty)


def test_apply_transform_composes():
    rng = random.Random(1007)
    for _ in range(40):
        p = random_poly(rng)
        s = rng.choice(ALL_TRANSFORMS)
        t = rng.choice(ALL_TRANSFORMS)
        both = compose_transforms(s, t)
        assert apply_transform(apply_transform(p, s), t) == apply_transform(p, both)


def test_sign_changes_preserve_support():
    rng = random.Random(1008)
    for _ in range(40):
        p = random_poly(rng)
        for t in (NEGATE_X, NEGATE_Y):
            assert set(p.support()) == set(apply_transform(p, t).support())


def test_subtract_constant():
    p = parse_polynomial("y + x^2*y^2")
    q = subtract_constant(p, Fraction(1, 8))
    assert q.coefficient((0, 0)) == Fraction(-1, 8)
    assert q.coefficient((0, 1)) == Fraction(1)


def test_evaluate_on_grid_matches_pointwise():
    p = parse_polynomial("y - x^2*y^2 + 3")
    xs = np.linspace(1.0, 4.0, 7)
    ys = np.linspace(0.0, 1.0, 5)
    grid = evaluate_on_grid(p, xs, ys)
    assert grid.shape == (7, 5)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert grid[i, j] == pytest.approx(p.evaluate_approx(x, y), rel=1e-12, abs=1e-12)


def test_float_paths_leave_the_fraction_view_unbuilt():
    # evaluate_approx and the grid read the numerators, not ``terms``
    J = jacobian(parse_polynomial("1/3*x^3*y + 2/7*x*y^2"), parse_polynomial("y^2 - 2/5*x"))
    assert J._den != 1
    J.evaluate_approx(0.5, -1.25)
    evaluate_on_grid(J, np.linspace(-2.0, 2.0, 5), np.linspace(-1.0, 1.0, 3))
    assert J._terms is None


def plan_coefficients(plan):
    """The coefficient floats of a Horner plan, keyed by exponent pair."""
    rows, low = plan
    out = {}
    j = low + sum(dj for dj, *_ in rows)
    for dj, first, rest, last_i in rows:
        j -= dj
        i = last_i + sum(di for di, _ in rest)
        out[(i, j)] = first
        for di, c in rest:
            i -= di
            out[(i, j)] = c
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.fractions(max_denominator=10**40)
        | st.fractions(min_value=-1, max_value=1, max_denominator=10**9),
        max_size=8,
    ).map(BivariatePolynomial)
)
def test_horner_plan_floats_are_the_fraction_floats(p):
    # n / den of the stored numerators rounds as float(Fraction) does
    got = plan_coefficients(_horner_plan(p._num, p._den))
    assert got == {k: float(c) for k, c in p.terms.items()}


@pytest.mark.parametrize(
    "text, what",
    [
        ("x^1000000*y", "degree 1000000"),
        ("(x^2 + y)^129", "degree 258"),
        ("x^200*x^57", "degree 257"),
        ("(1 + x + y)^60", "terms exceed"),
        ("2^1000", "bits"),
        ("(3/2)^200", "bits"),
    ],
)
def test_parser_refuses_input_over_a_cap(text, what):
    with pytest.raises(InputTooLarge, match=what):
        parse_polynomial(text)


def test_parser_admits_input_at_the_caps():
    assert parse_polynomial(f"x^{MAX_DEGREE}*y^{MAX_DEGREE}").degree_x() == MAX_DEGREE
    assert parse_polynomial(f"{2**MAX_COEFF_BITS - 1}/{2**MAX_COEFF_BITS - 1}*x") == parse_polynomial("x")
    assert parse_polynomial("1^1000000000 + (-1)^1000000001") == parse_polynomial("0")
    assert len(parse_polynomial("(1 + x + y)^43").terms) == 990 <= MAX_TERMS
    # the cap is per coefficient: their common denominator may exceed it
    p = parse_polynomial(f"1/{3**150}*x + 1/{5**100}*y")
    assert (3**150 * 5**100).bit_length() > MAX_COEFF_BITS
    assert p.terms == {(1, 0): Fraction(1, 3**150), (0, 1): Fraction(1, 5**100)}


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction loops it replaced.  Each reference
# works on a map from exponent pairs to Fractions, one Fraction per product.
# ---------------------------------------------------------------------------


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + sign * c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def ref_pow(a, n):
    out = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_partial(a, var):
    out = {}
    for (i, j), c in a.items():
        if var == "x" and i > 0:
            out[(i - 1, j)] = c * i
        elif var == "y" and j > 0:
            out[(i, j - 1)] = c * j
    return out


def ref_jacobian(p, q):
    return ref_add(
        ref_mul(ref_partial(p, "x"), ref_partial(q, "y")),
        ref_mul(ref_partial(p, "y"), ref_partial(q, "x")),
        -1,
    )


def ref_restrict(a, x0):
    x0 = Fraction(x0)
    out = [Fraction(0)] * (max((j for _, j in a), default=0) + 1)
    for (i, j), c in a.items():
        out[j] += c * x0**i
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_evaluate(a, x, y):
    x, y = Fraction(x), Fraction(y)
    total = Fraction(0)
    for (i, j), c in a.items():
        total += c * x**i * y**j
    return total


def assert_is(got, want_terms):
    """``got`` has exactly the coefficients ``want_terms`` (zeros dropped),
    and equals, and hashes like, the polynomial built from them."""
    want_terms = {k: Fraction(c) for k, c in want_terms.items() if c}
    assert got.terms == want_terms
    assert all(type(c) is Fraction for c in got.terms.values())
    want = BivariatePolynomial(want_terms)
    assert got == want and hash(got) == hash(want)


# coefficients with unlike denominators (1 among them), and the zero polynomial
kernel_coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12) | st.integers(-9, 9)
kernel_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), kernel_coeffs, max_size=7
).map(BivariatePolynomial)
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=30)
dyadics = st.floats(-8, 8) | st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@KERNEL
@given(kernel_polys, kernel_polys)
def test_kernel_ring_operations_match_the_fraction_loops(p, q):
    a, b = p.terms, q.terms
    assert_is(p + q, ref_add(a, b))
    assert_is(p - q, ref_add(a, b, -1))
    assert_is(-p, {k: -c for k, c in a.items()})
    assert_is(p * q, ref_mul(a, b))
    assert_is(3 - p, ref_add({(0, 0): Fraction(3)}, a, -1))
    assert_is(Fraction(2, 3) * p, ref_mul({(0, 0): Fraction(2, 3)}, a))
    # sums that cancel, in part and in whole
    assert_is(p + (q - p), b)
    assert_is(p - p, {})
    assert (p + (-p)).is_zero and p - p == BivariatePolynomial.zero()


@KERNEL
@given(kernel_polys, st.integers(0, 4))
def test_kernel_power_matches_the_fraction_loops(p, n):
    assert_is(p**n, ref_pow(p.terms, n))


@KERNEL
@given(kernel_polys, kernel_polys)
def test_kernel_calculus_matches_the_fraction_loops(p, q):
    for var in ("x", "y"):
        assert_is(p.partial_derivative(var), ref_partial(p.terms, var))
    assert_is(jacobian(p, q), ref_jacobian(p.terms, q.terms))


@KERNEL
@given(kernel_polys, st.one_of(rationals, dyadics, st.integers(-5, 5)))
def test_kernel_restriction_matches_the_fraction_loop(p, x0):
    got = p.restricted_to_x(x0)
    assert got == ref_restrict(p.terms, x0)
    assert all(type(c) is Fraction for c in got)


@KERNEL
@given(kernel_polys, st.one_of(rationals, dyadics), st.one_of(rationals, dyadics))
def test_kernel_evaluate_matches_the_fraction_loop(p, x, y):
    got = p.evaluate(x, y)
    assert type(got) is Fraction
    assert got == ref_evaluate(p.terms, x, y)


def test_kernel_edge_cases():
    zero = BivariatePolynomial.zero()
    half_x = BivariatePolynomial({(1, 0): Fraction(1, 2)})
    third_y = BivariatePolynomial({(0, 1): Fraction(1, 3)})
    assert_is(half_x + third_y, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    # 1/2*x + 1/2*x is x: the common denominator falls back to 1
    assert_is(half_x + half_x, {(1, 0): 1})
    assert_is((half_x + third_y) - third_y, {(1, 0): Fraction(1, 2)})
    assert_is(BivariatePolynomial({(2, 0): Fraction(1, 2)}).partial_derivative("x"), {(1, 0): 1})
    assert_is(zero * half_x, {})
    assert_is(jacobian(zero, half_x), {})
    assert_is(zero**0, {(0, 0): 1})
    assert zero.evaluate(1.5, Fraction(2, 7)) == 0
    assert zero.restricted_to_x(Fraction(3, 2)) == []
    assert str(half_x - half_x) == "0"
    assert BivariatePolynomial({(1, 0): 0.5, (0, 0): 3}) == half_x + 3


PARSE_LEAVES = (
    ("x", {(1, 0): Fraction(1)}),
    ("y", {(0, 1): Fraction(1)}),
    ("7", {(0, 0): Fraction(7)}),
    ("3/4", {(0, 0): Fraction(3, 4)}),
    ("6/4", {(0, 0): Fraction(3, 2)}),
    ("0", {}),
    ("0/9", {}),
)


def random_expression(rng, depth):
    """Polynomial text with parentheses, powers and rationals, with its
    coefficients built by the reference loops."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(PARSE_LEAVES)
    (ta, a), (tb, b) = random_expression(rng, depth - 1), random_expression(rng, depth - 1)
    kind = rng.randrange(5)
    if kind == 0:
        return f"({ta} + {tb})", ref_add(a, b)
    if kind == 1:
        return f"({ta} - {tb})", ref_add(a, b, -1)
    if kind == 2:
        return f"{ta}*{tb}", ref_mul(a, b)
    if kind == 3:
        n = rng.randrange(4)
        return f"({ta})^{n}", ref_pow(a, n)
    return f"(-{ta})", {k: -c for k, c in a.items()}


def test_parse_matches_reference_built_polynomials():
    rng = random.Random(1101)
    for _ in range(400):
        text, want = random_expression(rng, 4)
        p = parse_polynomial(text)
        assert_is(p, want)
        assert parse_polynomial(str(p)) == p


@pytest.mark.parametrize(
    "text, message",
    [
        # the degree cap, on a power, on a product and on a one-term power
        ("(x^2 + y)^129", "degree 258 in one variable exceeds the cap of 256"),
        ("x^200*x^57", "degree 257 in one variable exceeds the cap of 256"),
        ("x^1000000*y", "degree 1000000 in one variable exceeds the cap of 256"),
        # the term cap, on a power, on a product and on the whole sum
        ("(1 + x + y)^60", "1035 terms exceed the cap of 1024"),
        ("(1 + x + y)^44*(1 + x + y)", "1035 terms exceed the cap of 1024"),
        (
            " + ".join(f"x^{i}*y^{j}" for i in range(33) for j in range(33)),
            "1089 terms exceed the cap of 1024",
        ),
        # the coefficient cap, on numerators and on denominators
        ("2^1000", "a coefficient exceeds the cap of 256 bits"),
        ("(3/2)^200", "a coefficient exceeds the cap of 256 bits"),
        ("1/2^300", "a coefficient exceeds the cap of 256 bits"),
        ("(x + 1/3)^170", "a coefficient exceeds the cap of 256 bits"),
    ],
)
def test_parser_cap_messages_are_pinned(text, message):
    with pytest.raises(InputTooLarge) as info:
        parse_polynomial(text)
    assert str(info.value) == message
