import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmate.poly import (
    ALL_TRANSFORMS,
    IDENTITY,
    NEGATE_X,
    NEGATE_Y,
    SWAP,
    BivariatePolynomial,
    EmptyInput,
    NonNaturalExponent,
    ParseError,
    apply_transform,
    compose_transforms,
    evaluate_on_grid,
    jacobian,
    parse_polynomial,
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


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sparse_polys, st.lists(st.tuples(points, points), min_size=1, max_size=8))
def test_evaluate_approx_is_bit_identical_to_row_loop(p, xys):
    for x, y in xys:
        got, want = p.evaluate_approx(x, y), rowwise_horner(p, x, y)
        if want == math.inf and got != math.inf:
            # a power overflowed, so the row loop gave up; the value is exact
            assert got == exact_as_float(p, x, y)
            continue
        # hex() tells -0.0 from 0.0 and matches nan with nan
        assert got.hex() == want.hex()


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
