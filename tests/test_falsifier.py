import itertools
import json
import math
import pathlib
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacmate import falsifier as fz
from jacmate import univariate as uni
from jacmate.cli import run_command
from jacmate.poly import (
    MAX_TRIALS,
    SWAP,
    BivariatePolynomial,
    apply_transform,
    evaluate_on_grid,
    jacobian,
    parse_polynomial,
)
from jacmate.falsifier import (
    EXACT_GRID_HIT,
    LOCAL_MINIMIZATION,
    DegenerateSampler,
    MinRecord,
    NoRealZero,
    ZeroWitness,
    find_jacobian_zero,
    random_trials,
)

X = BivariatePolynomial.variable("x")
Y = BivariatePolynomial.variable("y")

# Jac = x^200 + 1 >= 1, but over PROOF_MAX_DEGREE: the proof is refused, so
# the search scans all 11 boxes for its miss record
GRID_MISS = (parse_polynomial("1/201*x^201 + x"), Y)


def refused(J):
    """A stand-in for ``_stays_above_bound`` that proves nothing."""
    return None


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
    roots = [float(root) for root in uni.isolate_roots(g)]
    assert min(abs(r - wy) for r in roots) <= 1e-6


def test_tangential_witness_hugs_axis(p1):
    # Jac(p1, y) = y^2: nonnegative, vanishes only on y = 0, where the first
    # slice's first probe is an exact root
    w = find_jacobian_zero(p1, Y)
    assert isinstance(w, ZeroWitness)
    assert w.method == EXACT_GRID_HIT
    assert w.point == (0.0, 0.0)
    assert w.bracket == (0, 0)
    assert w.jac_exact == 0.0


def test_descent_is_reached_where_no_slice_decides():
    # Jac(x, (y - 1/3)^3) = 3*(y - 1/3)^2: on every line a double root at
    # y = 1/3, which no probe hits and across which no sign changes
    w = find_jacobian_zero(X, parse_polynomial("(y - 1/3)^3"))
    assert isinstance(w, ZeroWitness)
    assert w.method == LOCAL_MINIMIZATION
    assert w.bracket is None
    assert abs(w.point[1] - 1 / 3) <= 1e-3


def test_soundness_identity_pair_reports_minimum(monkeypatch):
    # Jac = 1: proved free of zeros at once; with the proof refused, the
    # grid search reports its minimum, exact, over every box
    rec = find_jacobian_zero(X, Y)
    assert rec == NoRealZero(1, ("F",)) and rec.boxes_searched == 0
    monkeypatch.setattr(fz, "_stays_above_bound", refused)
    rec = find_jacobian_zero(X, Y)
    assert isinstance(rec, MinRecord)
    assert rec.best_abs_jac == 1.0
    assert rec.boxes_searched == 11


def test_soundness_no_false_witness_strictly_positive():
    # Jac(x + y^3, y) = 1 + ... check: d(x+y^3)/dx=1, /dy=3y^2; q=y:
    # Jac = 1*1 - 3y^2*0 = 1, never zero
    rec = find_jacobian_zero(parse_polynomial("x + y^3"), Y)
    assert rec == NoRealZero(1, ("F",))
    assert rec.bound == fz._ABOVE_BOUND > 10 * fz.ZERO_TOL


def test_a_proved_miss_builds_no_grid(monkeypatch):
    # Jac = -(1 + 3y^2 + x^2) <= -1: the proof holds with s = -1, and the
    # grid search is never entered
    monkeypatch.setattr(fz, "_grid_search", None)
    rec = find_jacobian_zero(X, parse_polynomial("-y - y^3 - x^2*y"))
    assert rec == NoRealZero(-1, fz.NO_ROOT_ON_ANY_SLICE)


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
    # Jac(x^2, y) = 2x vanishes between nodes; the grid's bisection must land
    # on it (the search proper decides it first, on the line x = 0)
    w = fz._grid_search(jacobian(parse_polynomial("x^2"), Y))
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


def test_negative_trial_count_is_refused(p3):
    with pytest.raises(ValueError, match="at least 0, got -1"):
        random_trials(p3, -1)
    assert random_trials(p3, 0).outcomes == ()


def test_trial_count_over_the_cap_is_refused(p3):
    with pytest.raises(ValueError, match=f"cap of {MAX_TRIALS}, got {MAX_TRIALS + 1}"):
        random_trials(p3, MAX_TRIALS + 1)


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


def test_trials_search_as_find_jacobian_zero_does(p3):
    # a trial's recorded mate text reproduces its answer
    for o in random_trials(p3, 8, seed=3).outcomes:
        want = find_jacobian_zero(p3, parse_polynomial(o.q_text))
        assert (o.witness if o.found else o.min_record) == want


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
        assert all(abs(q.coefficient(k)) <= 3 for k in q.support())
        assert any(j >= 1 for _, j in q.support())
        assert not jacobian(p3, q).is_zero


# -- the fused box scan against the scan it replaced ---------------------------

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def reference_find_jacobian_zero(p, q):
    """The box scan as it was before the fused sign scan: every mask is
    built on every box.  The grid is read through ``fz.evaluate_on_grid`` so
    that a test can substitute it for both searches."""
    J = jacobian(p, q)
    if J.is_zero:
        return ZeroWitness((0.0, 0.0), 0.0, EXACT_GRID_HIT, 0.0)
    Jx = J.partial_derivative("x")
    Jy = J.partial_derivative("y")
    best_abs = np.inf
    best_point = (0.0, 0.0)
    w = fz.INITIAL_HALF_WIDTH
    for _ in range(fz.MAX_DOUBLINGS + 1):
        xs = np.linspace(-w, w, fz.GRID_PER_AXIS)
        ys = np.linspace(-w, w, fz.GRID_PER_AXIS)
        vals = fz.evaluate_on_grid(J, xs, ys)
        finite = np.isfinite(vals)
        absvals = np.where(finite, np.abs(vals), np.inf)
        i_min, j_min = divmod(int(np.argmin(absvals)), len(ys))
        flattest = (float(xs[i_min]), float(ys[j_min]))
        if absvals[i_min, j_min] < best_abs:
            best_abs = float(absvals[i_min, j_min])
            best_point = flattest
        for i, j in np.argwhere(finite & (vals == 0.0)):
            x, y = float(xs[i]), float(ys[j])
            if J.evaluate(Fraction(x), Fraction(y)) == 0:
                return ZeroWitness((x, y), 0.0, EXACT_GRID_HIT, 0.0)
            hit = fz._accept(J, x, y, J.evaluate_approx(x, y), LOCAL_MINIMIZATION)
            if hit:
                return hit
        sgn = np.sign(vals)
        for i, j in np.argwhere(finite[:-1, :] & finite[1:, :] & (sgn[:-1, :] * sgn[1:, :] < 0)):
            hit = fz._bisect_segment(J, float(xs[i]), float(ys[j]), float(xs[i + 1]), float(ys[j]))
            if hit:
                return hit
        for i, j in np.argwhere(finite[:, :-1] & finite[:, 1:] & (sgn[:, :-1] * sgn[:, 1:] < 0)):
            hit = fz._bisect_segment(J, float(xs[i]), float(ys[j]), float(xs[i]), float(ys[j + 1]))
            if hit:
                return hit
        if np.isfinite(absvals[i_min, j_min]):
            hit = fz._descend(J, Jx, Jy, *flattest)
            if hit:
                return hit
        w *= 2
    return MinRecord(best_point, fz._exact_abs(J, *best_point))


def reference_descend(J, Jx, Jy, x, y):
    """The descent as it was before it could give up at its pace: every one
    of its 300 steps is taken while the line search still moves."""
    g = J.evaluate_approx(x, y)
    for _ in range(300):
        if abs(g) <= fz.ZERO_TOL:
            return fz._accept(J, x, y, g, LOCAL_MINIMIZATION)
        gx, gy = Jx.evaluate_approx(x, y), Jy.evaluate_approx(x, y)
        denom = gx * gx + gy * gy
        if denom == 0.0 or not math.isfinite(denom):
            return None
        dx, dy = -g * gx / denom, -g * gy / denom
        step = 1.0
        for _ in range(40):
            xn, yn = x + step * dx, y + step * dy
            gn = J.evaluate_approx(xn, yn)
            if abs(gn) < abs(g):
                x, y, g = xn, yn, gn
                break
            step *= 0.5
        else:
            return None
    return None


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), min_size=1, max_size=5
).map(BivariatePolynomial)


def assert_same_search(monkeypatch, p, q):
    """Same answer, and the same bisection segments and descent starts in the
    same order, so a scan that only wastes or skips work shows too.  The
    search runs with no slice deciding and no proof holding: the grid scan
    it falls back to."""
    monkeypatch.setattr(fz, "_slice_witness", lambda J: None)
    monkeypatch.setattr(fz, "_stays_above_bound", refused)
    logs = []
    for name in ("_bisect_segment", "_descend"):
        step = getattr(fz, name)

        def logged(J, *args, _name=name, _step=step):
            logs[-1].append((_name, args[-4:] if _name == "_bisect_segment" else args[-2:]))
            return _step(J, *args)

        monkeypatch.setattr(fz, name, logged)
    logs.append([])
    got = find_jacobian_zero(p, q)
    logs.append([])
    want = reference_find_jacobian_zero(p, q)
    assert got == want
    assert logs[0] == logs[1]


@PROPERTY
@given(small_polys, small_polys)
def test_search_matches_the_reference_scan(p, q):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_search(monkeypatch, p, q)


BUILT_GRID_CASES = [
    # Jac = x - y: exact float zeros on the grid diagonal
    ("1/2*x^2 - x*y", "y"),
    # Jac = x^200 + 1: no zero; the wide boxes overflow to inf
    ("1/201*x^201 + x", "y"),
    # Jac = y^2: tangential zero, reached by the descent
    ("y + x*y^2 + y^4", "y"),
    # Jac = (x^3 - y^3)^2 + 1: the miss proof holds, but refused, the wide
    # boxes cancel to sign changes that are bisected in vain
    ("1/7*x^7 - 1/2*x^4*y^3 + x*y^6 + x", "y"),
]


@pytest.mark.parametrize("p_text, q_text", BUILT_GRID_CASES)
def test_built_grids_match_the_reference_scan(monkeypatch, p_text, q_text):
    assert_same_search(monkeypatch, parse_polynomial(p_text), parse_polynomial(q_text))


def test_non_finite_boxes_are_reached():
    # the x^200 miss must really leave the all-finite path
    J = parse_polynomial("x^200 + 1")
    w = fz.INITIAL_HALF_WIDTH * 2**fz.MAX_DOUBLINGS
    xs = np.linspace(-w, w, fz.GRID_PER_AXIS)
    assert not np.isfinite(evaluate_on_grid(J, xs, xs)).all()


def _with_non_finite_nodes(grid):
    # NaN on the node nearest the least |Jac| and on a row, +inf next to -inf
    def patched(J, xs, ys, powers=None):
        vals = grid(J, xs, ys, powers)
        i, j = divmod(int(np.argmin(np.abs(vals))), len(ys))
        vals[i, j] = np.nan
        vals[0, :3] = np.nan
        vals[40, 9], vals[41, 9], vals[40, 10] = np.inf, -np.inf, -np.inf
        return vals

    return patched


@pytest.mark.parametrize(
    "p_text",
    [
        "x + 1/3*x^3",  # Jac = 1 + x^2: a miss; every box has the NaN nodes
        "x^2",  # Jac = 2*x: a hit by bisection next to the NaN nodes
    ],
)
def test_nan_and_inf_nodes_match_the_reference_scan(monkeypatch, p_text):
    monkeypatch.setattr(fz, "evaluate_on_grid", _with_non_finite_nodes(evaluate_on_grid))
    assert_same_search(monkeypatch, parse_polynomial(p_text), Y)


def _with_negative_zeros(grid):
    # exact zeros become -0.0, and so do two nodes where Jac is not zero
    def patched(J, xs, ys, powers=None):
        vals = grid(J, xs, ys, powers)
        vals = np.where(vals == 0.0, -0.0, vals)
        vals[3, 5] = -0.0
        vals[129, 7] = -0.0
        return vals

    return patched


@pytest.mark.parametrize(
    "p_text",
    [
        # Jac = x - y: -0.0 on the diagonal, which is still an exact hit
        "1/2*x^2 - x*y",
        # Jac = (x - 1/40)*(x - 1/50) + 1/10^9: both roots sit between grid
        # rows 127 and 128, where Jac has one sign; a -0.0 node is no sign change
        "1/3*x^3 - 9/400*x^2 + 1/2000*x + 1/1000000000*x",
        # Jac = 1 + x^2: no zero at all, only the injected -0.0 nodes
        "x + 1/3*x^3",
        # Jac = 2*x: the injected -0.0 nodes sit among negative values, and
        # are no sign change before the one between rows 127 and 128
        "x^2",
    ],
)
def test_negative_zero_nodes_match_the_reference_scan(monkeypatch, p_text):
    monkeypatch.setattr(fz, "evaluate_on_grid", _with_negative_zeros(evaluate_on_grid))
    assert_same_search(monkeypatch, parse_polynomial(p_text), Y)


grid_values = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, -3e300, np.inf, -np.inf, np.nan])


@PROPERTY
@given(st.lists(grid_values, min_size=12, max_size=12), st.integers(0, 1))
def test_sign_changes_match_the_sign_products(values, axis):
    vals = np.array(values).reshape(3, 4)
    finite = np.isfinite(vals)
    sgn = np.sign(vals)
    if axis == 0:
        want = finite[:-1, :] & finite[1:, :] & (sgn[:-1, :] * sgn[1:, :] < 0)
    else:
        want = finite[:, :-1] & finite[:, 1:] & (sgn[:, :-1] * sgn[:, 1:] < 0)
    want = [tuple(ij) for ij in np.argwhere(want)]
    signed = finite & (vals != 0.0)
    assert list(fz._sign_changes(np.signbit(vals), signed, axis)) == want
    if signed.all():
        # the search passes no mask when every node is finite and nonzero
        assert list(fz._sign_changes(np.signbit(vals), None, axis)) == want


# -- the exact slices -------------------------------------------------------------


@PROPERTY
@given(small_polys, small_polys)
def test_every_slice_bracket_proves_a_zero(p, q):
    J = jacobian(p, q)
    w = fz._slice_witness(J)
    if w is None:
        return
    x, (lo, hi) = w.point[0], w.bracket
    assert x in fz.SLICE_XS and w.jac_exact <= 10 * fz.ZERO_TOL
    if lo == hi:
        assert w.method == EXACT_GRID_HIT and J.evaluate(x, lo) == 0
    else:
        assert w.method == fz.SIGN_CHANGE_BISECTION
        assert lo < hi and J.evaluate(x, lo) * J.evaluate(x, hi) < 0


rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.fractions(max_denominator=60),
    max_size=6,
).map(BivariatePolynomial)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rational_polys, st.sampled_from(fz.SLICE_XS), st.floats(allow_nan=False, allow_infinity=False))
def test_a_slice_row_gives_the_exact_value_at_a_float(J, x0, y):
    # _accept reads a slice point's |Jac| off the line's integer row
    num, den = fz._row_value(J.integer_row(x0), J.denominator, y)
    exact = J.evaluate(x0, y)
    assert den > 0 and Fraction(num, den) == exact
    if abs(exact) < 2**1000:  # one rounding of one rational, as float(Fraction)
        assert abs(num) / den == abs(float(exact))


def test_a_slice_hit_is_found_before_any_grid(monkeypatch):
    # Jac(p1, x) = -(1 + 2xy + 4y^3): on x = 0 it changes sign at the cube
    # root of -1/4, between the probes -1 and 0
    monkeypatch.setattr(fz, "_grid_search", None)
    w = find_jacobian_zero(parse_polynomial("y + x*y^2 + y^4"), X)
    assert w.method == fz.SIGN_CHANGE_BISECTION and w.point[0] == 0.0
    lo, hi = w.bracket
    assert -1 < lo and hi < 0 and lo**3 < Fraction(-1, 4) < hi**3


# Jac(x, q) = 256*D*y^255 + 255*C*y^254 + 1 with D of 88 bits and C of 151:
# on every line one negative root, just past 2^63, so each slice probes out
# to its reach and halves a bracket there, and _accept refuses the point
NEAR_CAP_Q = f"{2**87 + 1}*y^256 + {2**150 + 3**90}*y^255 + y"


def test_slice_step_runs_to_its_reach_near_the_parse_caps(monkeypatch):
    halved = []
    bisect = uni._bisect

    def recorded(*args):
        halved.append(bisect(*args))
        return halved[-1]

    monkeypatch.setattr(uni, "_bisect", recorded)
    J = jacobian(X, parse_polynomial(NEAR_CAP_Q))
    assert J.degree_y() == 255
    assert fz._slice_witness(J) is None
    assert len(halved) == len(fz.SLICE_XS)
    reach = 2**fz.SLICE_EXPONENT
    for lo, hi in halved:
        assert -reach < lo < hi < -reach // 2 and J.evaluate(0, lo) * J.evaluate(0, hi) < 0


def test_slice_witness_json_carries_the_bracket(capsys):
    assert run_command(["falsify", "y + x*y^2 + y^4", "--q", "x"]) == 0
    witness = json.loads(capsys.readouterr().out)
    lo, hi = map(Fraction, witness["bracket"])
    assert witness["point"][0] == 0.0 and lo < hi


# -- the grid kernel against exact evaluation ----------------------------------

dyadic_axis = st.lists(st.integers(-64, 64), min_size=1, max_size=7).map(lambda ks: np.array(ks) / 8.0)


def assert_grid_within_rounding(p, xs, ys, grid):
    """Each node within 4*(deg_x + deg_y + 2)*2^-53 * sum |c_ij||x|^i|y|^j of
    the exact value: a summation error bound (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.1) with room for the rounded powers."""
    assert grid.shape == (len(xs), len(ys))
    unit = Fraction(4 * (p.degree_x() + p.degree_y() + 2), 2**53)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            fx, fy = Fraction(float(x)), Fraction(float(y))
            exact = p.evaluate(fx, fy)
            size = sum(
                abs(p.coefficient((i, j))) * abs(fx) ** i * abs(fy) ** j for i, j in p.support()
            )
            assert abs(Fraction(float(grid[a, b])) - exact) <= unit * size, (x, y)


@PROPERTY
@given(small_polys, dyadic_axis, dyadic_axis)
def test_grid_values_are_within_rounding_of_exact(p, xs, ys):
    assert_grid_within_rounding(p, xs, ys, evaluate_on_grid(p, xs, ys))


@PROPERTY
@given(small_polys, dyadic_axis)
def test_one_axis_for_both_gives_the_same_bits(p, axis):
    # xs is ys shares the powers between V and P; the grid does not change
    assert np.array_equal(evaluate_on_grid(p, axis, axis), evaluate_on_grid(p, axis, axis.copy()))


def test_falsifier_passes_one_axis_for_both(monkeypatch):
    same = []

    def recorded(J, xs, ys, powers=None):
        same.append(xs is ys)
        return evaluate_on_grid(J, xs, ys, powers)

    monkeypatch.setattr(fz, "evaluate_on_grid", recorded)
    find_jacobian_zero(*GRID_MISS)
    assert same and all(same)


# -- the box tables, built once per process -------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture
def cold_tables():
    """Empty box tables for one test; later searches build them again."""
    fz._box.cache_clear()


def built_boxes():
    """The box tables built so far, by k, read without building any."""
    assert fz._box.cache_info().currsize == fz.MAX_DOUBLINGS + 1
    return {k: fz._box(k) for k in range(fz.MAX_DOUBLINGS + 1)}


def fresh_axis(k):
    w = fz.INITIAL_HALF_WIDTH * 2**k
    return np.linspace(-w, w, fz.GRID_PER_AXIS)


def test_box_tables_equal_fresh_axes_and_powers(cold_tables):
    # every power from 0 to 40 of both variables, on every box
    J = parse_polynomial("2 + " + " + ".join(f"x^{j} + y^{j}" for j in range(1, 41)))
    for k in range(fz.MAX_DOUBLINGS + 1):
        axis, powers = fz._box(k)
        fresh = fresh_axis(k)
        assert axis.tobytes() == fresh.tobytes()
        cold = evaluate_on_grid(J, fresh, fresh)
        filled = evaluate_on_grid(J, axis, axis, powers)
        assert sorted(powers) == list(range(41))
        for j, power in powers.items():
            assert power.tobytes() == (fresh**j).tobytes(), (k, j)
        # the grid is the same bits whether the memo is filled or read
        assert filled.tobytes() == cold.tobytes()
        assert evaluate_on_grid(J, axis, axis, powers).tobytes() == cold.tobytes()
    assert fz._box.cache_info().currsize == fz.MAX_DOUBLINGS + 1


def test_box_tables_are_read_only(cold_tables):
    # a grid miss, so the search fills every box
    find_jacobian_zero(*GRID_MISS)
    for axis, powers in built_boxes().values():
        assert powers
        for cached in (axis, *powers.values()):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0


def test_threads_building_the_tables_at_once_agree(cold_tables):
    # searches racing to build each box and power keep the single-thread
    # answer, and every box keeps its own axis
    want = find_jacobian_zero(*GRID_MISS)
    fz._box.cache_clear()
    got = []
    workers = [threading.Thread(target=lambda: got.append(find_jacobian_zero(*GRID_MISS))) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert got == [want] * len(workers)
    # x^200 overflows on the wide boxes, in the tables and afresh alike
    with np.errstate(over="ignore"):
        for k, (axis, powers) in built_boxes().items():
            assert axis.tobytes() == fresh_axis(k).tobytes()
            assert all(power.tobytes() == (fresh_axis(k) ** j).tobytes() for j, power in powers.items())


def assert_miss_golden(capsys):
    assert run_command(["falsify", "1/201*x^201 + x", "--q", "y"]) == 1
    want = (GOLDEN / "falsify_grid_miss_x201_q_y.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


def test_search_order_does_not_change_an_answer(cold_tables, capsys, pinchuk):
    # Pinchuk's pair fills powers up to 18 on all 11 boxes, and the grid
    # miss golden then reads them warm; in the reverse order Pinchuk's
    # search finds the golden's powers there, and gives its cold answer again
    p, q = pinchuk[:2]
    cold = find_jacobian_zero(p, q)
    assert [max(powers) for _, powers in built_boxes().values()] == [18] * (fz.MAX_DOUBLINGS + 1)
    assert_miss_golden(capsys)
    fz._box.cache_clear()
    assert_miss_golden(capsys)
    assert find_jacobian_zero(p, q) == cold


def test_absent_x_degrees_leave_no_nan():
    # on the widest box xs^200 overflows on the outer rows, and so does
    # xs^150: a zero row for the absent x^150 would make them NaN, not +inf
    J = parse_polynomial("x^200 + 1")
    w = fz.INITIAL_HALF_WIDTH * 2**fz.MAX_DOUBLINGS
    xs = np.linspace(-w, w, fz.GRID_PER_AXIS)
    grid = evaluate_on_grid(J, xs, xs)
    with np.errstate(over="ignore"):
        overflows = xs**200 == np.inf
        assert overflows.any() and (xs[overflows] ** 150 == np.inf).any()
    assert (grid[overflows] == np.inf).all()
    assert (np.isfinite(grid[~overflows]) & (grid[~overflows] >= 1.0)).all()


def test_zero_polynomial_gives_a_zero_grid():
    grid = evaluate_on_grid(parse_polynomial("0"), np.linspace(0, 1, 3), np.linspace(0, 1, 5))
    assert grid.shape == (3, 5) and not grid.any()


@PROPERTY
@given(small_polys, st.integers(-64, 64), dyadic_axis)
def test_one_row_grid_matches_the_one_column_transpose(p, k, ys):
    x = np.array([k / 8.0])
    row = evaluate_on_grid(p, x, ys)
    column = evaluate_on_grid(apply_transform(p, SWAP), ys, x)
    assert row.shape == column.T.shape == (1, len(ys))
    assert_grid_within_rounding(p, x, ys, row)
    assert_grid_within_rounding(p, x, ys, column.T)


def test_miss_record_reads_jac_exactly_where_the_grid_cancels():
    # Jac = (x^10 - y^10)^2 + 1 >= 1, but the float grid cancels to 0.0
    # on the diagonal of the wide boxes
    p = parse_polynomial("1/21*x^21 - 2/11*x^11*y^10 + x*y^20 + x")
    rec = find_jacobian_zero(p, Y)
    assert isinstance(rec, MinRecord)
    assert rec.best_abs_jac == 1.0


# -- the miss proof ------------------------------------------------------------

# every determinant-1 integer matrix with entries in {-1, 0, 1}
LINEAR_PARTS = [
    m for m in itertools.product((-1, 0, 1), repeat=4) if m[0] * m[3] - m[1] * m[2] == 1
]

CERTIFIED = [
    "y + x*y^2 + y^4",
    "y + x*y^3",
    "y + y^2 + x*y^3",
    "y + x^2*y^2",
    "y + y^3 + x^2*y^2",
    "y + y^2 + y^3 + x^2*y^2",
    "x + x^2*y",
    "y - (x^2 - 4*x + 6)*y^2",
]


def affine_pair(a, b, c, d, e=2, g=-1):
    """(x, y + y^3 + x^2*y) after (x, y) -> (ax + by + e, cx + dy + g).

    With ad - bc = 1 the Jacobian is 1 + 3v^2 + u^2 >= 1 in the moved
    coordinates u, v."""
    u = a * X + b * Y + e
    v = c * X + d * Y + g
    return u, v + v**3 + u * u * v


@pytest.mark.parametrize(
    "text",
    [
        "y^2",  # acceptance 6: a tangential zero on y = 0
        "x^2 + y^2",  # zero at the origin only
        "(x*y - 1)^2 + x^2",  # infimum 0, never attained: lc_y = x^2 has a root
        "(x^2 + y^2 - 1)^2 + 1/1000000",  # positive, but below the bound on the circle
        "1/100000",  # the bound itself: C is the float above it
    ],
)
def test_proof_refuses_jacobians_near_zero(text):
    assert not fz._stays_above_bound(parse_polynomial(text))


@pytest.mark.parametrize("text", CERTIFIED)
def test_proof_refuses_every_mate_of_a_certified_polynomial(text):
    # by the paper's theorem, every Jacobian against a certified p has a
    # real zero, so a proof here would be a soundness bug
    p = parse_polynomial(text)
    for seed in range(200):
        _, J = fz._sample_mate(p, random.Random(seed))
        assert not fz._stays_above_bound(J), (seed, str(J))


@pytest.mark.parametrize("linear", LINEAR_PARTS)
def test_proof_holds_on_every_affine_move(linear):
    proof = fz._stays_above_bound(jacobian(*affine_pair(*linear)))
    assert proof == NoRealZero(1, fz.NO_ROOT_ON_ANY_SLICE)


@pytest.mark.parametrize(
    "J",
    [
        jacobian(parse_polynomial("x + y^3"), Y),  # the constant 1: deg_y = 0
        parse_polynomial("1 + (x^2 + y^3 - 1)^2 + (x*y - 2)^2"),  # deg_y = 6
    ],
)
def test_proof_holds_where_jac_stays_above_one(J):
    assert fz._stays_above_bound(J)


def test_proof_takes_its_determinants_only_within_the_budget(monkeypatch):
    calls = []
    resultant = uni.resultant

    def counted(*args):
        calls.append(args)
        return resultant(*args)

    monkeypatch.setattr(uni, "resultant", counted)
    # x^2 + y^2 + 1 predicts 3 nodes of 3 x 3 determinants, and
    # (x^10 - y^10)^2 + 1, which is >= 1 too, 581 nodes of 39 x 39: refused
    assert fz._stays_above_bound(parse_polynomial("x^2 + y^2 + 1"))
    assert len(calls) == 3
    assert not fz._stays_above_bound(parse_polynomial("(x^10 - y^10)^2 + 1"))
    assert len(calls) == 3
    # in x alone, the degree cap refuses x^200 + 1
    assert fz._stays_above_bound(parse_polynomial(f"x^{fz.PROOF_MAX_DEGREE} + 1"))
    assert not fz._stays_above_bound(parse_polynomial("x^200 + 1"))


@pytest.mark.parametrize(
    "pair",
    [
        (X, parse_polynomial("y + y^3 + x^2*y")),  # Jac = 1 + x^2 + 3y^2
        affine_pair(1, 1, 0, 1),  # Jac = x^2 + 2xy + 4x + 4y^2 - 2y + 8
    ],
)
def test_affine_proofs_take_three_determinants(monkeypatch, pair):
    # F has total degree 2 and F_y total degree 1, so Res_y(F, F_y) has
    # degree at most 1*2 + 2*1 - 2*1 = 2: three nodes, where the x-degree
    # bound 1*deg_x F + 2*deg_x F_y takes five for the moved pair
    calls = []
    resultant = uni.resultant

    def counted(*args):
        calls.append(args)
        return resultant(*args)

    monkeypatch.setattr(uni, "resultant", counted)
    assert fz._stays_above_bound(jacobian(*pair))
    assert len(calls) == 3


def test_answers_do_not_depend_on_the_proof(monkeypatch):
    # the proof only ends a search early: refused, the grid search finds no
    # witness where it held, every box scanned (824 bisections of
    # (x^3 - y^3)^2 + 1 among them), and every other answer stays the same
    assert len(LINEAR_PARTS) == 20
    pairs = [affine_pair(*m) for m in LINEAR_PARTS]
    pairs += [tuple(map(parse_polynomial, case)) for case in BUILT_GRID_CASES]
    answers = [find_jacobian_zero(p, q) for p, q in pairs]
    proved = [isinstance(r, NoRealZero) for r in answers]
    assert proved == [True] * len(LINEAR_PARTS) + [False, False, False, True]
    monkeypatch.setattr(fz, "_stays_above_bound", refused)
    for (p, q), answer, held in zip(pairs, answers, proved):
        again = find_jacobian_zero(p, q)
        if held:
            assert isinstance(again, MinRecord) and again.boxes_searched == 11
        else:
            assert again == answer


# -- the descent's early end against the full descent --------------------------


def census_polynomial(rng, exponents):
    """Coefficients k/d, k in [-9, 9] and d in {3, 5, 7, 11, 13}, on the
    given exponent pairs, drawn in their order."""
    return BivariatePolynomial(
        {e: Fraction(rng.randint(-9, 9), rng.choice((3, 5, 7, 11, 13))) for e in exponents}
    )


def census_linear(rng):
    return census_polynomial(rng, ((1, 0), (0, 1), (0, 0)))


def census_quadratic(rng):
    return census_polynomial(rng, ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)))


# Jacobians with tangential or point zeros, or none at all where the conic of
# q is empty: r and s linear, q quadratic
DESCENT_CENSUS = {
    "r^2": lambda rng: census_linear(rng) ** 2,
    "q^2": lambda rng: census_quadratic(rng) ** 2,
    "r^2 + s^2": lambda rng: census_linear(rng) ** 2 + census_linear(rng) ** 2,
    "r^4": lambda rng: census_linear(rng) ** 4,
    "q^2 (1 + x^2)": lambda rng: census_quadratic(rng) ** 2 * (1 + X * X),
}


def descent_starts(J):
    """The flattest finite node of each box, where the grid search starts
    its descent."""
    for k in range(fz.MAX_DOUBLINGS + 1):
        xs, powers = fz._box(k)
        absvals = np.abs(evaluate_on_grid(J, xs, xs, powers))
        absvals[~np.isfinite(absvals)] = np.inf
        i, j = divmod(int(np.argmin(absvals)), len(xs))
        if np.isfinite(absvals[i, j]):
            yield float(xs[i]), float(xs[j])


def outcome_kind(result):
    return (type(result), getattr(result, "method", None))


def test_descent_ends_early_only_where_the_full_descent_would(monkeypatch):
    # the descent may give up before its 300 steps, so from every box's start
    # it returns the full descent's answer or None; and over the census no
    # search changes its kind of outcome
    rng = random.Random(20)
    starts, kinds = 0, set()
    for make in DESCENT_CENSUS.values():
        for _ in range(40):
            J = make(rng)
            if J.is_zero:
                continue
            Jx, Jy = J.partial_derivative("x"), J.partial_derivative("y")
            for x, y in descent_starts(J):
                starts += 1
                got = fz._descend(J, Jx, Jy, x, y)
                assert got is None or got == reference_descend(J, Jx, Jy, x, y), (str(J), x, y)
            with monkeypatch.context() as m:
                # the proof does not depend on the descent: taken once
                proof = fz._stays_above_bound(J)
                m.setattr(fz, "_stays_above_bound", lambda _J: proof)
                got = fz._search(J)
                m.setattr(fz, "_descend", reference_descend)
                want = fz._search(J)
            assert outcome_kind(got) == outcome_kind(want), str(J)
            kinds.add(outcome_kind(got))
    assert starts >= 2000
    # descents hit, and searches miss after a descent in every box
    assert {(ZeroWitness, LOCAL_MINIMIZATION), (MinRecord, None)} <= kinds
