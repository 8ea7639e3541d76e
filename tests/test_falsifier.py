from fractions import Fraction

import pytest

from jacmate.poly import BivariatePolynomial, jacobian, parse_polynomial
from jacmate.falsifier import (
    EXACT_GRID_HIT,
    LOCAL_MINIMIZATION,
    DegenerateSampler,
    MinRecord,
    ZeroWitness,
    find_jacobian_zero,
    random_trials,
)

X = BivariatePolynomial.variable("x")
Y = BivariatePolynomial.variable("y")


def test_witness_on_transversal_zero_curve(p1):
    # Jac(p1, x) = -(1 + 2xy + 4y^3); any witness must sit on that cubic
    w = find_jacobian_zero(p1, X)
    assert isinstance(w, ZeroWitness)
    wx, wy = w.point
    assert abs(1 + 2 * wx * wy + 4 * wy**3) <= 1e-9
    assert abs(w.jac_value) <= 1e-6
    assert w.jac_exact <= 1e-5


def test_witness_distance_to_true_zero_set(p1):
    # resolve the witness against the exact curve: fix x, isolate in y
    from jacmate import univariate as uni

    w = find_jacobian_zero(p1, X)
    wx, wy = w.point
    xq = Fraction(wx)
    g = [1 + 0 * xq, 2 * xq, Fraction(0), Fraction(4)]  # 4y^3 + 2x y + 1
    roots = [uni.float_root(g, iv) for iv in uni.isolate_roots(g)]
    assert min(abs(r - wy) for r in roots) <= 1e-6


def test_tangential_witness_hugs_axis(p1):
    # Jac(p1, y) = y^2: nonnegative, vanishes only on y = 0
    w = find_jacobian_zero(p1, Y)
    assert isinstance(w, ZeroWitness)
    assert w.method == LOCAL_MINIMIZATION
    assert abs(w.point[1]) <= 1e-3
    assert w.jac_exact <= 1e-5


def test_soundness_identity_pair_reports_minimum():
    rec = find_jacobian_zero(X, Y)
    assert isinstance(rec, MinRecord)
    assert rec.best_abs_jac == 1.0
    assert rec.boxes_searched == 11


def test_soundness_no_false_witness_strictly_positive():
    # Jac(x + y^3, y) = 1 + ... check: d(x+y^3)/dx=1, /dy=3y^2; q=y:
    # Jac = 1*1 - 3y^2*0 = 1, never zero
    rec = find_jacobian_zero(parse_polynomial("x + y^3"), Y)
    assert isinstance(rec, MinRecord)
    assert rec.best_abs_jac == 1.0


def test_zero_jacobian_shortcut(p1):
    w = find_jacobian_zero(p1, p1 + p1)
    assert isinstance(w, ZeroWitness)
    assert w.point == (0.0, 0.0)
    assert w.method == EXACT_GRID_HIT
    assert w.jac_exact == 0.0


def test_exact_grid_hit_method():
    # Jac((x+4)^2, y) = 2x + 8 vanishes on the x = -4 grid column
    w = find_jacobian_zero(parse_polynomial("(x + 4)^2"), Y)
    assert isinstance(w, ZeroWitness)
    assert w.method == EXACT_GRID_HIT
    assert w.point[0] == -4.0
    assert w.jac_exact == 0.0


def test_bisection_recovers_off_grid_zero():
    # Jac(x^2, y) = 2x vanishes between nodes; bisection must land on it
    w = find_jacobian_zero(parse_polynomial("x^2"), Y)
    assert isinstance(w, ZeroWitness)
    assert abs(w.point[0]) <= 1e-9
    assert w.jac_exact <= 1e-5


def test_determinism_across_runs(p3):
    r1 = random_trials(p3, 12)
    r2 = random_trials(p3, 12)
    assert [o.q_text for o in r1.outcomes] == [o.q_text for o in r2.outcomes]
    for a, b in zip(r1.outcomes, r2.outcomes):
        assert a.found == b.found
        if a.found:
            assert a.witness.point == b.witness.point
            assert a.witness.method == b.witness.method
    assert r1.witness_rate == r2.witness_rate


def test_seed_changes_the_mates(p3):
    base = random_trials(p3, 6)
    moved = random_trials(p3, 6, seed=7)
    assert [o.q_text for o in base.outcomes] != [o.q_text for o in moved.outcomes]


def test_trial_seeds_are_spread_out(p3):
    rep = random_trials(p3, 5)
    seeds = [o.seed for o in rep.outcomes]
    assert seeds == [k * 1000003 for k in range(5)]


def test_trial_report_on_certified_family(certified_family):
    for p, _ in certified_family:
        rep = random_trials(p, 10)
        assert rep.witness_rate >= 0.9
        for o in rep.outcomes:
            if o.found:
                assert o.witness.jac_exact <= 1e-5
            else:
                assert o.min_record is not None


def test_empty_run():
    rep = random_trials(parse_polynomial("y + x^2*y^2"), 0)
    assert rep.outcomes == ()
    assert rep.witness_rate == 0.0


def test_degenerate_sampler_rejected():
    # Jac(1, q) = 0 for every q, so all 10 draws are degenerate
    with pytest.raises(DegenerateSampler):
        random_trials(parse_polynomial("1"), 1)


def test_sampled_mates_are_bounded_and_nontrivial(p3):
    rep = random_trials(p3, 15)
    for o in rep.outcomes:
        q = parse_polynomial(o.q_text)
        assert all(i + j <= 3 for i, j in q.support())
        assert all(abs(c) <= 3 for c in q.terms.values())
        assert any(j >= 1 for _, j in q.support())
        assert not jacobian(p3, q).is_zero
