"""Pinchuk's pair: a known answer the tool must never contradict.

Pinchuk (Math. Z., 1994) built P and Q with Jac(P, Q) > 0 everywhere, so
P has a real Jacobian mate.  The edge criterion must therefore never
certify P, under any axis symmetry, and the falsifier must never find a
Jacobian zero against Q.

The falsifier's half is a control, not a proof: it holds for the search
boxes and the float search as they are.  Jac(P, Q) is not bounded away
from 0: on the curve xy = 1 it is 170/x^2, which falls below the float
acceptance bound 1e-6 past x ~ 13,038, outside the largest box (|x| <= 4096).
"""

from fractions import Fraction

import pytest

from jacmate import falsifier as fz
from jacmate import univariate as uni
from jacmate.falsifier import MinRecord, find_jacobian_zero
from jacmate.poly import (
    ALL_TRANSFORMS,
    _horner_plan,
    apply_transform,
    jacobian,
    parse_polynomial,
)
from jacmate.polygon import corollary_certificate


@pytest.fixture(scope="module")
def pinchuk():
    # t = xy - 1, h = t(xt + 1), f = (xt + 1)^2 (t^2 + y); P = f + h and
    # Q = -t^2 - 6th(h + 1) - u with
    # u = 170fh + 91h^2 + 195fh^2 + 69h^3 + 75fh^3 + (75/4)h^4
    x, y, one = (parse_polynomial(s) for s in ("x", "y", "1"))
    t = x * y - 1
    h = t * (x * t + 1)
    f = (x * t + 1) ** 2 * (t**2 + y)
    u = (
        170 * f * h + 91 * h**2 + 195 * f * h**2 + 69 * h**3 + 75 * f * h**3
        + parse_polynomial("75/4") * h**4
    )
    p = f + h
    q = -(t**2) - 6 * t * h * (h + one) - u
    return p, q, t, h, f


def test_pinchuk_jacobian_is_a_sum_of_squares(pinchuk):
    p, q, t, h, f = pinchuk
    assert (q.degree_x(), q.degree_y(), len(q.terms)) == (15, 10, 55)
    # Jac(P, Q) = t^2 + (t + f(13 + 15h))^2 + f^2: positive, since t = f = 0
    # would need xy = 1 and y = 0 at once
    assert jacobian(p, q) == t**2 + (t + f * (13 + 15 * h)) ** 2 + f**2
    # the texts are inside the parser's input budget
    assert parse_polynomial(str(q)) == q and parse_polynomial(str(p)) == p


def test_pinchuk_p_never_certifies(pinchuk):
    p = pinchuk[0]
    for transform in ALL_TRANSFORMS:
        shown = apply_transform(p, transform)
        assert not corollary_certificate(shown, allow_swap=False).satisfied, transform


def test_pinchuk_pair_has_no_jacobian_zero(pinchuk, compiled_plans):
    p, q = pinchuk[:2]
    rec = find_jacobian_zero(p, q)
    assert isinstance(rec, MinRecord)
    # the record's |Jac| is exact at its point, not the float grid's value
    x, y = map(Fraction, rec.best_point)
    J = jacobian(p, q)
    assert rec.best_abs_jac == abs(float(J.evaluate(x, y)))
    # the descents run J, J_x and J_y hot enough to compile each once
    hot = (J, J.partial_derivative("x"), J.partial_derivative("y"))
    plans = [_horner_plan(f._num, f._den) for f in hot]
    assert sorted(map(plans.index, compiled_plans)) == [0, 1, 2]


def test_pinchuk_valley_passes_the_acceptance_bound_past_the_boxes(pinchuk):
    # on xy = 1, t = h = 0 and f = y, so Jac = t^2 + (t + 13f)^2 + f^2 = 170/x^2
    J = jacobian(*pinchuk[:2])
    edge = int(fz.INITIAL_HALF_WIDTH) * 2**fz.MAX_DOUBLINGS
    assert J.evaluate(Fraction(edge), Fraction(1, edge)) == Fraction(170, edge**2)
    # at the largest box's edge it still exceeds the revalidation bound ...
    assert Fraction(170, edge**2) > 10 * fz.ZERO_TOL
    # ... and past it the exact value passes the float acceptance bound
    at = J.evaluate(Fraction(14000), Fraction(1, 14000))
    assert at == Fraction(17, 19_600_000) < fz.ZERO_TOL
    # where floats see only cancellation, orders of magnitude above it
    assert abs(J.evaluate_approx(14000.0, 1 / 14000)) > 1e6


def test_pinchuk_jacobian_is_refused_before_any_determinant(pinchuk, monkeypatch):
    # Jac > 0 everywhere, but Res_y(F, F_y) would take 415 determinants of
    # 23 x 23 (about 11 s): the miss proof refuses it on its budget alone,
    # before it counts a root or takes a determinant
    calls = []
    for name in ("resultant", "count_roots"):
        step = getattr(uni, name)

        def counted(*args, _step=step):
            calls.append(args)
            return _step(*args)

        monkeypatch.setattr(uni, name, counted)
    assert not fz._stays_above_bound(jacobian(*pinchuk[:2]))
    assert calls == []
