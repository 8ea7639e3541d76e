"""Pinchuk's pair: a known answer the tool must never contradict.

Pinchuk (Math. Z., 1994) built P and Q with Jac(P, Q) > 0 everywhere, so
P has a real Jacobian mate.  The edge criterion must therefore never
certify P, under any axis symmetry, and the falsifier must never find a
Jacobian zero against Q.
"""

from fractions import Fraction

import pytest

from jacmate import falsifier as fz
from jacmate import univariate as uni
from jacmate.falsifier import MinRecord, find_jacobian_zero
from jacmate.poly import ALL_TRANSFORMS, apply_transform, jacobian, parse_polynomial
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


def test_pinchuk_pair_has_no_jacobian_zero(pinchuk):
    p, q = pinchuk[:2]
    rec = find_jacobian_zero(p, q)
    assert isinstance(rec, MinRecord)
    # the record's |Jac| is exact at its point, not the float grid's value
    x, y = map(Fraction, rec.best_point)
    assert rec.best_abs_jac == abs(float(jacobian(p, q).evaluate(x, y)))


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
