import random
from fractions import Fraction

from jacmate.univariate import (
    DEFAULT_WIDTH,
    count_roots,
    degree,
    derivative,
    float_root,
    isolate_roots,
    normalize,
    poly_divmod,
    poly_gcd,
    root_bound,
    squarefree_decomposition,
    sturm_chain,
    ueval,
)


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
