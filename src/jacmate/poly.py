"""Exact sparse bivariate polynomials over the rationals.

A polynomial ``sum a_ij * x^i * y^j`` is stored on one common denominator:
integer numerators n_ij, keyed by exponent pairs ``(i, j)``, over one
positive integer den, with a_ij = n_ij / den in lowest terms (den = 1 for
integer coefficients).  The zero polynomial has no numerators.  Sums,
products, derivatives, the Jacobian, restriction to a vertical line, exact
evaluation, printing and the parser all work on these integers, scaling each
operand once and building a ``Fraction`` only for a result that must be one,
such as :meth:`BivariatePolynomial.coefficient`; no other copy of the
coefficients is kept.  Floating point enters only through
:meth:`BivariatePolynomial.evaluate_approx` and the grid evaluator, and numpy
only through the grid evaluator, which imports it on first use: the exact
commands run without loading it.

``evaluate_approx`` runs a Horner plan, planned once per polynomial, on one
of two paths with the same float operations in the same order, so their
values agree bit for bit.  The first ``COMPILE_AFTER - 1`` calls walk the
plan in a loop.  On the ``COMPILE_AFTER``-th the plan becomes a straight-line
Python function, which drops the loop's interpreter overhead and about
halves the time per call on Pinchuk's 78-term Jacobian.  Compiling costs
about 100 loop calls, so it pays back only some 200 calls later.  On
Pinchuk's miss the falsifier's 11 descents call J 1,680 times and J_x and
J_y 361 times each, so all three compile, and the query takes a median
18.5 ms against 21.3 ms with the loop alone (12 alternating rounds of 31
queries, compiled faster in all 12; 2-core VM, Python 3.11): the compiled
path still pays there, by about an eighth.  No polynomial of a falsifier
hit reaches the threshold (at most 47 calls each on the benchmark's
documents).

The eight axis symmetries (swap the variables, negate either axis) are
:class:`Transform` values, three flags each.  Applying a transform never
changes which exponent pairs can appear, only where they sit and the
coefficient signs, so the Newton polygon machinery downstream can reason
about supports without tracking coefficients.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    import numpy as np

LatticePoint = tuple[int, int]

__all__ = [
    "LatticePoint",
    "BivariatePolynomial",
    "Transform",
    "IDENTITY",
    "SWAP",
    "NEGATE_X",
    "NEGATE_Y",
    "ParseError",
    "EmptyInput",
    "NonNaturalExponent",
    "InputTooLarge",
    "MAX_DEGREE",
    "MAX_TERMS",
    "MAX_COEFF_BITS",
    "MAX_NESTING",
    "MAX_TRIALS",
    "parse_polynomial",
    "jacobian",
    "apply_transform",
    "evaluate_on_grid",
]


class ParseError(ValueError):
    """Malformed polynomial text.  ``position`` is a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EmptyInput(ParseError):
    pass


class NonNaturalExponent(ParseError):
    """Exponent that is not a nonnegative integer."""


class InputTooLarge(ValueError):
    """Polynomial text whose value, or a power or product in it, exceeds a cap."""


# Input budget of the parser, checked on every power and every product of
# several terms as it is built, and on the whole value, so that no text
# makes parsing, or exact evaluation later, run unbounded.
# The largest inputs in use are x^200 (a float overflow test) and Pinchuk's
# Q: degrees 15 and 10, 55 terms, 17-bit numerators.
MAX_DEGREE = 256  # in each variable
MAX_TERMS = 1024
MAX_COEFF_BITS = 256  # numerator and denominator each
# Parentheses open at once; at about 495 levels the parser's descent would
# pass Python's default recursion limit.
MAX_NESTING = 200

# The most trials the falsifier's random_trials runs: a trial that hits takes
# 0.4-1 ms on the fixtures (2-core VM, Python 3.11), and every outcome is kept.
MAX_TRIALS = 1000

# The float evaluation of a polynomial on which its Horner plan is compiled
# to straight-line code; the earlier ones run the loop (see the docstring).
COMPILE_AFTER = 256


@dataclass(frozen=True)
class Transform:
    """One of the eight axis symmetries of the plane, as three flags.

    Exponent-level action on a term ``c * x^i * y^j``: first swap the
    exponents if ``swap_xy``, then multiply the coefficient by ``(-1)^i``
    if ``negate_x`` and by ``(-1)^j`` if ``negate_y`` (exponents taken
    after the swap).  As a substitution this is ``p(sigma(x, y))`` with
    ``sigma(x, y) = (ex * x, ey * y)``, or ``(ey * y, ex * x)`` if
    ``swap_xy``, where ``ex`` is -1 if ``negate_x`` and 1 otherwise, and
    ``ey`` likewise for ``negate_y``.
    """

    swap_xy: bool = False
    negate_x: bool = False
    negate_y: bool = False


IDENTITY = Transform()
SWAP = Transform(swap_xy=True)
NEGATE_X = Transform(negate_x=True)
NEGATE_Y = Transform(negate_y=True)


class BivariatePolynomial:
    """Immutable sparse polynomial in x and y with rational coefficients.

    Stored as integer numerators over one positive common denominator, in
    lowest terms: ``sum _num[i, j] * x^i * y^j / _den``.  This is its only
    form, and it is canonical, so equal polynomials store equal numerators
    and denominators.  ``support`` and ``coefficient`` read it term by term.
    """

    # ``_plan`` is the float Horner plan with its call count, built on the
    # first float evaluation and replaced by its compiled function once hot
    __slots__ = ("_num", "_den", "_plan")

    def __init__(self, terms: Mapping[LatticePoint, Fraction | int] | None = None):
        clean: dict[LatticePoint, Fraction] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            if type(c) is not Fraction:
                c = Fraction(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        # the least common denominator leaves no factor common to all numerators
        den = math.lcm(*(c.denominator for c in clean.values()))
        _init(self, {k: c.numerator * (den // c.denominator) for k, c in clean.items()}, den)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls({})

    @classmethod
    def constant(cls, c: Fraction | int) -> "BivariatePolynomial":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def variable(cls, name: str) -> "BivariatePolynomial":
        if name == "x":
            return cls({(1, 0): Fraction(1)})
        if name == "y":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(*_add(self._num, self._den, other._num, other._den))

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return _poly({k: -n for k, n in self._num.items()}, self._den)

    def __sub__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(*_add(self._num, self._den, other._num, other._den, -1))

    def __rsub__(self, other) -> "BivariatePolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(*_convolve(self._num, self._den, other._num, other._den))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariatePolynomial":
        if n < 0:
            raise ValueError("negative power")
        out = BivariatePolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._num.items())))

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def denominator(self) -> int:
        """The positive common denominator of the coefficients, in lowest terms."""
        return self._den

    def support(self) -> frozenset[LatticePoint]:
        return frozenset(self._num)

    def degree_x(self) -> int:
        return max((i for i, _ in self._num), default=0)

    def degree_y(self) -> int:
        return max((j for _, j in self._num), default=0)

    def coefficient(self, point: LatticePoint) -> Fraction:
        return Fraction(self._num.get(point, 0), self._den)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, y) -> Fraction:
        """Exact value at a rational point (ints, floats and Fractions alike).

        With x = a/b and y = c/d, and X and Y the degrees in x and y, the
        value is the integer sum of n_ij * a^i b^(X-i) * c^j d^(Y-j) over
        den * b^X * d^Y, reduced once.
        """
        (a, b), (c, d) = _ratio(x), _ratio(y)
        X, Y = self.degree_x(), self.degree_y()
        xp = _scaled_powers(a, b, X, {i for i, _ in self._num})
        yp = _scaled_powers(c, d, Y, {j for _, j in self._num})
        total = sum(n * xp[i] * yp[j] for (i, j), n in self._num.items())
        return Fraction(total, self._den * b**X * d**Y)

    def evaluate_approx(self, x: float, y: float) -> float:
        """Double-precision value, Horner in y over Horner-in-x rows.

        The rows are planned once per polynomial (see :func:`_horner_plan`)
        and run on the loop below; on the ``COMPILE_AFTER``-th call the plan
        becomes straight-line code (see :func:`_compile_plan`), which takes
        the same float steps in the same order.  When a power overflows at a
        finite point, the value is taken exactly there instead: its float if
        representable, else infinity of its sign.  At an infinite or NaN
        coordinate there is no exact value, and the result is NaN.
        """
        plan = self._plan
        if plan is None:
            plan = [0, *_horner_plan(self._num, self._den)]  # calls, rows, last_j
            object.__setattr__(self, "_plan", plan)
        try:
            if type(plan) is not list:
                return plan(x, y)
            plan[0] += 1
            if plan[0] == COMPILE_AFTER:
                compiled = _compile_plan(plan[1], plan[2])
                object.__setattr__(self, "_plan", compiled)
                return compiled(x, y)
            _, rows, last_j = plan
            acc = 0.0
            for dj, first, rest, last_i in rows:
                if dj:
                    acc *= y if dj == 1 else y**dj
                h = first
                for di, c in rest:
                    h = (h * x if di == 1 else h * x**di) + c
                if last_i:
                    h *= x**last_i
                acc += h
            if last_j:
                acc *= y**last_j
            return acc
        except OverflowError:
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.nan
            exact = self.evaluate(x, y)
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf

    def restricted_to_x(self, x0: Fraction | int) -> list[Fraction]:
        """Coefficients of p(x0, y) as a univariate polynomial in y, ascending."""
        a, b = _ratio(x0)
        den = self._den * b ** self.degree_x()
        return [Fraction(s, den) for s in self._row(a, b)]

    def integer_row(self, x0: int) -> list[int]:
        """p(x0, y) times ``denominator``, ascending in y: integer
        coefficients with the signs of p on the line x = x0."""
        return self._row(x0, 1)

    def integer_coefficient_y(self, j: int) -> list[int]:
        """The coefficient of y^j times ``denominator``, ascending in x:
        integer coefficients with the roots and signs of the coefficient."""
        out = [self._num.get((i, j), 0) for i in range(self.degree_x() + 1)]
        while out and out[-1] == 0:
            out.pop()
        return out

    def _row(self, a: int, b: int) -> list[int]:
        """b^deg_x * den * p(a/b, y) as integer coefficients in y, ascending."""
        xp = _scaled_powers(a, b, self.degree_x(), {i for i, _ in self._num})
        out = [0] * (self.degree_y() + 1)
        for (i, j), n in self._num.items():
            out[j] += n * xp[i]
        while out and out[-1] == 0:
            out.pop()
        return out

    # -- calculus -----------------------------------------------------------

    def partial_derivative(self, var: str) -> "BivariatePolynomial":
        if var == "x":
            out = {(i - 1, j): n * i for (i, j), n in self._num.items() if i}
        elif var == "y":
            out = {(i, j - 1): n * j for (i, j), n in self._num.items() if j}
        else:
            raise ValueError(f"unknown variable {var!r}")
        return _poly(*_lowest(out, self._den))

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        """Terms by descending exponent pair, each coefficient in lowest terms."""
        num, den = self._num, self._den
        if not num:
            return "0"
        parts = []
        for (i, j) in sorted(num, reverse=True):
            n = num[(i, j)]
            g = math.gcd(n, den)
            mag = str(abs(n) // g) if g == den else f"{abs(n) // g}/{den // g}"
            mono = "*".join(s for s in (_power("x", i), _power("y", j)) if s)
            body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
            parts.append(f" {'-' if n < 0 else '+'} {body}")
        text = "".join(parts)  # " + a - b ...": drop the first sign's padding
        return ("-" if text[1] == "-" else "") + text[3:]

    def __repr__(self) -> str:
        return f"BivariatePolynomial({str(self)!r})"


# ---------------------------------------------------------------------------
# The integer kernel.  A polynomial's coefficients are a pair: numerators
# ``num`` (a dict from exponent pairs to nonzero ints) over one positive
# denominator ``den``, in lowest terms.  Both helpers take and return such
# pairs.  Integer coefficients give den = 1, where ``_lowest`` takes no gcd.
# ---------------------------------------------------------------------------

Numerators = dict[LatticePoint, int]


def _init(p: BivariatePolynomial, num: Numerators, den: int) -> None:
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    object.__setattr__(p, "_plan", None)


def _poly(num: Numerators, den: int) -> BivariatePolynomial:
    """The polynomial of a pair already in lowest terms, without re-checking it."""
    p = object.__new__(BivariatePolynomial)
    _init(p, num, den)
    return p


def _lowest(num: Numerators, den: int) -> tuple[Numerators, int]:
    """The pair divided by the gcd of ``den`` and every numerator."""
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return {k: n // g for k, n in num.items()}, den // g
    return num, den


def _add(a: Numerators, ad: int, b: Numerators, bd: int, sign: int = 1) -> tuple[Numerators, int]:
    """a/ad + sign * b/bd over lcm(ad, bd); sums that cancel are dropped."""
    if ad == bd:
        den, out, scale = ad, dict(a), sign
    else:
        den = math.lcm(ad, bd)
        out = {k: n * (den // ad) for k, n in a.items()}
        scale = sign * (den // bd)
    for k, n in b.items():
        s = out.get(k, 0) + scale * n
        if s:
            out[k] = s
        else:
            del out[k]
    return _lowest(out, den)


def _convolve(a: Numerators, ad: int, b: Numerators, bd: int) -> tuple[Numerators, int]:
    """The product (a/ad) * (b/bd)."""
    out: Numerators = {}
    get = out.get
    b_items = list(b.items())
    for (i1, j1), n1 in a.items():
        for (i2, j2), n2 in b_items:
            k = (i1 + i2, j1 + j2)
            out[k] = get(k, 0) + n1 * n2
    return _lowest({k: n for k, n in out.items() if n}, ad * bd)


def _ratio(v) -> tuple[int, int]:
    """A rational number as (numerator, positive denominator) in lowest terms."""
    if type(v) is float:  # the falsifier's points: no Fraction to build
        return v.as_integer_ratio()
    v = Fraction(v)
    return v.numerator, v.denominator


def _scaled_powers(a: int, b: int, top: int, exponents) -> dict[int, int]:
    """a^e * b^(top - e) for each e in ``exponents``: a/b to the e, over b^top."""
    return {e: a**e * b ** (top - e) for e in exponents}


def _coerce(value) -> "BivariatePolynomial":
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return BivariatePolynomial({(0, 0): Fraction(value)})
    return NotImplemented


def _horner_plan(num: Numerators, den: int) -> tuple[tuple, int]:
    """Float Horner plan: rows by descending y power, terms by descending x.

    Each row is ``(dj, first, rest, last_i)``: the y gap from the previous
    row, the leading coefficient, ``(x gap, coefficient)`` for the others and
    the lowest x power.  ``first`` is stored as ``0.0 + c``, the first step of
    the accumulation it replaces.  Gaps of 0 are skipped at evaluation:
    ``x**0`` is 1.0, and multiplying by 1.0 changes no float, so every value
    equals the per-call row loop bit for bit.  Each coefficient is n / den,
    int true division, which rounds correctly just as ``float(Fraction)``.
    """
    by_j: dict[int, list[tuple[int, float]]] = {}
    for (i, j), n in num.items():
        by_j.setdefault(j, []).append((i, n / den))
    rows = []
    prev_j = None
    for j in sorted(by_j, reverse=True):
        row = sorted(by_j[j], reverse=True)
        rest = tuple((i0 - i1, c) for (i0, _), (i1, c) in zip(row, row[1:]))
        dj = 0 if prev_j is None else prev_j - j
        rows.append((dj, 0.0 + row[0][1], rest, row[-1][0]))
        prev_j = j
    return tuple(rows), prev_j or 0


def _compile_plan(rows: tuple, last_j: int):
    """The Horner plan as a straight-line function of (x, y).

    The source (see :func:`_plan_source`) runs with no builtins: it holds
    only x, y, a, h, finite float constants and int exponents.
    """
    namespace: dict = {}
    exec(_plan_source(rows, last_j), {"__builtins__": {}}, namespace)
    return namespace["horner"]


def _plan_source(rows: tuple, last_j: int) -> str:
    """Python source taking the steps of the loop in ``evaluate_approx``.

    One statement per step, in the loop's order: ``h = h * x**di + c`` per
    term, ``a *= y**dj`` and ``a += h`` per row.  A gap of 1 is written
    ``x`` (or ``y``), since ``x**1`` is exactly x, and every other gap as
    the same float ``**`` the loop takes.  A coefficient is written as its
    ``repr``, which reads back as the same float; ``n / den`` is finite or
    raises, so it never reads ``inf`` or ``nan``.  Statements, not one
    nested expression: CPython's parser refuses an expression nested as
    deep as a row of degree 256.
    """

    def power(var: str, gap: int) -> str:
        return var if gap == 1 else f"{var}**{gap}"

    lines = ["def horner(x, y):", " a = 0.0"]
    for dj, first, rest, last_i in rows:
        if dj:
            lines.append(f" a *= {power('y', dj)}")
        if not rest and not last_i:
            lines.append(f" a += {first!r}")
            continue
        lines.append(f" h = {first!r}")
        lines.extend(f" h = h * {power('x', di)} + {c!r}" for di, c in rest)
        if last_i:
            lines.append(f" h *= {power('x', last_i)}")
        lines.append(" a += h")
    if last_j:
        lines.append(f" a *= {power('y', last_j)}")
    lines.append(" return a")
    return "\n".join(lines)


def _within_budget(value: tuple[Numerators, int]) -> tuple[Numerators, int]:
    num, den = value
    degree = _degree(num)
    if degree > MAX_DEGREE:
        raise InputTooLarge(f"degree {degree} in one variable exceeds the cap of {MAX_DEGREE}")
    if len(num) > MAX_TERMS:
        raise InputTooLarge(f"{len(num)} terms exceed the cap of {MAX_TERMS}")
    if max(den, max(map(abs, num.values()), default=0)).bit_length() <= MAX_COEFF_BITS:
        return value  # no coefficient's lowest terms can be longer
    for n in num.values():
        # each coefficient n/den in its own lowest terms
        g = math.gcd(n, den)
        if max((n // g).bit_length(), (den // g).bit_length()) > MAX_COEFF_BITS:
            raise InputTooLarge(f"a coefficient exceeds the cap of {MAX_COEFF_BITS} bits")
    return value


def _degree(num: Numerators) -> int:
    """The larger of the degrees in x and in y."""
    return max((max(k) for k in num), default=0)


def _power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


# ---------------------------------------------------------------------------
# Parsing
#
# expr     := ['+'|'-'] term {('+'|'-') term}
# term     := factor {'*' factor}
# factor   := base ['^' uint]
# base     := 'x' | 'y' | rational | '(' expr ')'
# rational := uint ['/' uint]
#
# A uint is a run of the ASCII digits 0-9.  Whitespace is ignored everywhere:
# any character for which str.isspace() holds, which is what \s matches.
# Multiplication is always explicit.
#
# One regex call splits the text into tokens, each converted and checked
# before the descent, so the first fault in the text is the one reported.
# Then a text with more than MAX_NESTING '(' has its depth checked, so the
# descent, which recurses twice per level, never passes Python's limit.
# The descent indexes the plain token list (ints, one-character strings and
# None at the end); a token's character offset is found only for an error.
# Values are (numerators, denominator) pairs of the integer kernel.  A
# product keeps its one-term factors as one monomial c/d * x^a * y^b, a sum
# gathers its terms in one dict, and each is reduced once, at its end.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"[0-9]+|\S")
_SYMBOLS = frozenset("+-*/^()xy")


class _Fault(Exception):
    """(error class, message, token index) of a malformed text."""


def _fail(t: list, i: int, expected: str):
    tok = t[i]
    kind = "int" if type(tok) is int else "var" if tok in ("x", "y") else tok
    found = "end of input" if tok is None else f"{kind!r} token"
    raise _Fault(ParseError, f"expected {expected}, found {found}", i)


def _monomial(a: int, b: int, c: int, d: int) -> tuple[Numerators, int]:
    """c/d * x^a * y^b in lowest terms, for d > 0."""
    g = math.gcd(c, d)
    return ({(a, b): c // g}, d // g) if c else ({}, 1)


def _expr(t: list, i: int) -> tuple[Numerators, int, int]:
    """The sum from token i, in lowest terms, and the index past it."""
    acc, den, tok = {}, 1, t[i]
    while True:  # an optional sign, then terms joined by signs
        sign = -1 if tok == "-" else 1
        if tok in ("+", "-"):
            i += 1
        num, d, i = _term(t, i)
        if d != den:
            m = math.lcm(den, d)
            acc = {k: n * (m // den) for k, n in acc.items()}
            sign, den = sign * (m // d), m
        for k, n in num.items():
            s = acc.get(k, 0) + sign * n
            if s:
                acc[k] = s
            else:
                del acc[k]
        tok = t[i]
        if tok not in ("+", "-"):
            return (*_lowest(acc, den), i)


def _term(t: list, i: int) -> tuple[Numerators, int, int]:
    """The product from token i, in lowest terms, and the index past it."""
    a = b = 0  # the product of the one-term factors: c/d * x^a * y^b
    c = d = 1
    value = None  # the whole product, once a factor has several terms
    while True:
        tok, factor, m, e = t[i], None, 1, 1
        i += 1
        if tok == "(":
            num, den, i = _expr(t, i)
            if t[i] != ")":
                _fail(t, i, "')'")
            factor, i = (num, den), i + 1
        elif type(tok) is int and t[i] == "/":
            m = t[i + 1]
            if type(m) is not int:
                _fail(t, i + 1, "integer denominator")
            if not m:
                raise _Fault(ParseError, "zero denominator", i + 1)
            i += 2
        elif type(tok) is not int and tok not in ("x", "y"):
            _fail(t, i - 1, "'x', 'y', a number or '('")
        if t[i] == "^":
            e = t[i + 1]
            if e == "-":
                raise _Fault(NonNaturalExponent, "exponent must be a nonnegative integer", i + 1)
            if type(e) is not int:
                _fail(t, i + 1, "integer exponent")
            if t[i + 2] == "/":
                raise _Fault(NonNaturalExponent, "fractional exponents are not polynomials", i + 2)
            i += 2
            if tok not in ("x", "y"):
                factor = _bounded_power(factor or _monomial(0, 0, tok, m), e)
            elif e > MAX_DEGREE:  # all that a variable's power can exceed
                raise InputTooLarge(f"degree {e} in one variable exceeds the cap of {MAX_DEGREE}")
        if factor is None:  # x^e, y^e or tok/m
            fa, fb, fc = (e, 0, 1) if tok == "x" else (0, e, 1) if tok == "y" else (0, 0, tok)
        elif len(factor[0]) <= 1:  # one term again: fold it into the monomial
            (fa, fb), fc = next(iter(factor[0].items()), ((0, 0), 0))
            factor, m = None, factor[1]
        if factor is None and value is None:
            a, b, c, d = a + fa, b + fb, c * fc, d * m
        else:  # a product of several terms is checked after each step
            value = _convolve(*(value or _monomial(a, b, c, d)), *(factor or _monomial(fa, fb, fc, m)))
            if len(value[0]) > 1:
                _within_budget(value)
        if t[i] != "*":
            return (*(value or _monomial(a, b, c, d)), i)
        i += 1


def _bounded_power(base: tuple[Numerators, int], n: int) -> tuple[Numerators, int]:
    """base^n, refused before any step would leave the input budget."""
    num, den = base
    degree = _degree(num)
    if degree * n > MAX_DEGREE:
        raise InputTooLarge(f"degree {degree * n} in one variable exceeds the cap of {MAX_DEGREE}")
    if len(num) <= 1:
        # one term stays one term; n > MAX_DEGREE only for a constant.  In
        # lowest terms its one numerator c is coprime to den.
        (i, j), c = next(iter(num.items()), ((0, 0), 0))
        if n > MAX_COEFF_BITS and max(abs(c), den) > 1:
            raise InputTooLarge(f"a coefficient exceeds the cap of {MAX_COEFF_BITS} bits")
        c **= n
        return _within_budget(({(i * n, j * n): c} if c else {}, den**n))
    value = ({(0, 0): 1}, 1)
    for _ in range(n):  # n <= MAX_DEGREE here
        value = _within_budget(_convolve(*value, num, den))
    return value


def _offset(text: str, k: int) -> int:
    """The character offset of token k of ``text``; past the last, len(text)."""
    return ([m.start() for m in _TOKEN.finditer(text)] + [len(text)])[k]


def _check_nesting(text: str) -> None:
    """Refuse parentheses nested past MAX_NESTING, at the first '(' past it.

    Each '(' and ')' is a token of its own, so the depth in characters is
    the depth the descent would reach.
    """
    depth = 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise InputTooLarge(
                    f"parentheses nested {depth} deep exceed the cap of {MAX_NESTING} (at offset {k})"
                )
        elif ch == ")":
            depth -= 1


def parse_polynomial(text: str) -> BivariatePolynomial:
    """Parse polynomial text with explicit '*', '^' and rational constants.

    Raises ParseError, with the character offset of the first malformed
    token, and InputTooLarge when a power, a product of several terms (after
    each multiplication) or the whole value exceeds ``MAX_DEGREE``,
    ``MAX_TERMS`` or ``MAX_COEFF_BITS``.  Sums and one-term products grow
    only as fast as the text, so the whole value's check covers them.
    Parentheses nested past ``MAX_NESTING`` are refused after the tokens
    are checked and before the descent, with the offset of the first '('
    past the cap.
    """
    t: list = []
    for s in _TOKEN.findall(text):
        if s in _SYMBOLS:
            t.append(s)
        elif s[0] in "0123456789":
            t.append(int(s))
        else:
            raise ParseError(f"unexpected character {s!r}", _offset(text, len(t)))
    if not t:
        raise EmptyInput("empty polynomial text", 0)
    if text.count("(") > MAX_NESTING:  # only then can the nesting pass the cap
        _check_nesting(text)
    t.append(None)
    try:
        num, den, i = _expr(t, 0)
        if t[i] is not None:
            _fail(t, i, "'+', '-', '*' or end of input")
    except _Fault as fault:
        kind, message, k = fault.args
        raise kind(message, _offset(text, k)) from None
    return _poly(*_within_budget((num, den)))


# ---------------------------------------------------------------------------
# Free-standing ring operations
# ---------------------------------------------------------------------------


def jacobian(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """Jacobian determinant p_x * q_y - p_y * q_x, exactly, in one pass.

    Numerators a*x^i1*y^j1 of p and b*x^i2*y^j2 of q contribute
    a*b*(i1*j2 - j1*i2) * x^(i1+i2-1) * y^(j1+j2-1); a nonzero cross factor
    makes both exponents nonnegative.
    """
    out: Numerators = {}
    get = out.get
    q_items = list(q._num.items())
    for (i1, j1), a in p._num.items():
        for (i2, j2), b in q_items:
            cross = i1 * j2 - j1 * i2
            if cross:
                k = (i1 + i2 - 1, j1 + j2 - 1)
                out[k] = get(k, 0) + a * b * cross
    return _poly(*_lowest({k: n for k, n in out.items() if n}, p._den * q._den))


def apply_transform(p: BivariatePolynomial, t: Transform) -> BivariatePolynomial:
    """Substitute the axis symmetry ``t`` into ``p`` (exact, invertible)."""
    out: Numerators = {}
    for (i, j), n in p._num.items():
        if t.swap_xy:
            i, j = j, i
        if t.negate_x and i % 2:
            n = -n
        if t.negate_y and j % 2:
            n = -n
        out[(i, j)] = n
    return _poly(out, p._den)


def evaluate_on_grid(
    p: BivariatePolynomial,
    xs: np.ndarray,
    ys: np.ndarray,
    powers: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Float values of p on the outer grid xs × ys, shape (len(xs), len(ys)).

    One matrix product V @ P: row i of P is P_i(ys) = sum_j c_ij * ys^j, and
    column i of V is xs^i, over the x-degrees that occur in p only.  An
    absent degree must stay out: where xs^i overflows to inf, a zero row
    P_i would turn inf * 0 into NaN across the whole grid.  When xs is ys,
    one axis for both, each power is taken once for V and P alike.

    ``powers`` is a memo j -> ys**j that belongs to the ys axis; the caller
    keeps it across calls, and each missing power is added read-only.  A
    memoized power is the same ``ys**j`` array a fresh call takes, so the
    grid is bit-identical with or without it.  It holds at most d + 1
    arrays for a p of degree d in either variable, 2 KB each on a 256-node
    axis.  The falsifier keeps one memo per box: 11 x (d + 1) x 2 KB, about
    11.5 MB at the parse caps, where a Jacobian has d <= 511.
    """
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if powers is None:
        powers = {}

    def power(j: int) -> np.ndarray:  # powers cost most: each ys^j once
        if j not in powers:
            fresh = ys**j
            fresh.flags.writeable = False  # the memo may outlive the call
            powers[j] = fresh
        return powers[j]

    rows: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), n in sorted(p._num.items()):
            rows[i] = rows.get(i, 0.0) + n / p._den * power(j)
        if not rows:
            return np.zeros((len(xs), len(ys)))
        V = np.stack([power(i) if xs is ys else xs**i for i in rows], axis=1)
        return V @ np.stack(list(rows.values()))
