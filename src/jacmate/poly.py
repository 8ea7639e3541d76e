"""Exact sparse bivariate polynomials over the rationals.

A polynomial ``sum a_ij * x^i * y^j`` is stored on one common denominator:
integer numerators n_ij, keyed by exponent pairs ``(i, j)``, over one
positive integer den, with a_ij = n_ij / den in lowest terms (den = 1 for
integer coefficients).  The zero polynomial has no numerators.  Sums,
products, derivatives, the Jacobian, restriction to a vertical line, exact
evaluation and the parser all work on these integers, scaling each operand
once and building a ``Fraction`` only for a result that must be one; the
``terms`` map of ``Fraction`` coefficients is built on first use.  Floating
point enters only through :meth:`BivariatePolynomial.evaluate_approx` and the
grid evaluator, and numpy only through the grid evaluator, which imports it on
first use: the exact commands run without loading it.

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
represented by :class:`Transform` values.  Applying a transform never changes
which exponent pairs can appear, only where they sit and the coefficient
signs, so the Newton polygon machinery downstream can reason about supports
without tracking coefficients.
"""

from __future__ import annotations

import math
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
    "NEGATE_XY",
    "ALL_TRANSFORMS",
    "ParseError",
    "EmptyInput",
    "NonNaturalExponent",
    "InputTooLarge",
    "MAX_DEGREE",
    "MAX_TERMS",
    "MAX_COEFF_BITS",
    "parse_polynomial",
    "jacobian",
    "apply_transform",
    "compose_transforms",
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
# makes parsing, or exact evaluation later, run unbounded.  The largest inputs in use are x^200 (a float overflow test)
# and Pinchuk's Q: degrees 15 and 10, 55 terms, 17-bit numerators.
MAX_DEGREE = 256  # in each variable
MAX_TERMS = 1024
MAX_COEFF_BITS = 256  # numerator and denominator each

# The float evaluation of a polynomial on which its Horner plan is compiled
# to straight-line code; the earlier ones run the loop (see the docstring).
COMPILE_AFTER = 256


@dataclass(frozen=True)
class Transform:
    """One of the eight axis symmetries of the plane.

    Exponent-level action on a term ``c * x^i * y^j``: first swap the
    exponents if ``swap_xy``, then multiply the coefficient by ``(-1)^i``
    if ``negate_x`` and by ``(-1)^j`` if ``negate_y`` (exponents taken
    after the swap).  As a substitution this is ``p(sigma(x, y))`` for the
    signed permutation ``sigma`` returned by :meth:`matrix`.
    """

    swap_xy: bool = False
    negate_x: bool = False
    negate_y: bool = False

    def matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        ex = -1 if self.negate_x else 1
        ey = -1 if self.negate_y else 1
        if self.swap_xy:
            return ((0, ey), (ex, 0))
        return ((ex, 0), (0, ey))


IDENTITY = Transform()
SWAP = Transform(swap_xy=True)
NEGATE_X = Transform(negate_x=True)
NEGATE_Y = Transform(negate_y=True)
NEGATE_XY = Transform(negate_x=True, negate_y=True)

ALL_TRANSFORMS = tuple(
    Transform(swap_xy=s, negate_x=nx, negate_y=ny)
    for s in (False, True)
    for nx in (False, True)
    for ny in (False, True)
)

_BY_MATRIX = {t.matrix(): t for t in ALL_TRANSFORMS}


def compose_transforms(first: Transform, second: Transform) -> Transform:
    """The single transform equivalent to applying ``first`` then ``second``."""
    a, b = first.matrix(), second.matrix()
    prod = tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2))
        for r in range(2)
    )
    return _BY_MATRIX[prod]


class BivariatePolynomial:
    """Immutable sparse polynomial in x and y with rational coefficients.

    Stored as integer numerators over one positive common denominator, in
    lowest terms: ``sum _num[i, j] * x^i * y^j / _den``.  The form is
    canonical, so equal polynomials store equal numerators and denominators.
    ``terms`` gives the same coefficients as a map to ``Fraction``.
    """

    # ``_terms`` is the Fraction view, built on first use.  ``_plan`` is the
    # float Horner plan with its call count, built on the first float
    # evaluation and replaced by its compiled function once hot
    __slots__ = ("_num", "_den", "_terms", "_plan")

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
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePolynomial is immutable")

    @property
    def terms(self) -> dict[LatticePoint, Fraction]:
        """Map from exponent pairs ``(i, j)`` to the nonzero coefficients."""
        terms = self._terms
        if terms is None:
            den = self._den
            terms = {k: Fraction(n, den) for k, n in self._num.items()}
            object.__setattr__(self, "_terms", terms)
        return terms

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
        return hash(frozenset(self.terms.items()))

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def support(self) -> frozenset[LatticePoint]:
        return frozenset(self._num)

    def degree_x(self) -> int:
        return max((i for i, _ in self._num), default=0)

    def degree_y(self) -> int:
        return max((j for _, j in self._num), default=0)

    def coefficient(self, point: LatticePoint) -> Fraction:
        return self.terms.get(point, Fraction(0))

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
        """p(x0, y) times the positive common denominator, ascending in y:
        integer coefficients with the signs of p on the line x = x0."""
        return self._row(x0, 1)

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
        if not self._num:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j)]
            mono = "*".join(
                s
                for s in (_power("x", i), _power("y", j))
                if s
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

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
    object.__setattr__(p, "_terms", None)
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
# Whitespace is ignored everywhere.  Multiplication is always explicit.
# ---------------------------------------------------------------------------

_OPERATORS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, pos))
            pos += 1
        elif ch in ("x", "y"):
            tokens.append(("var", ch, pos))
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        kind, _, where = self.peek()
        found = "end of input" if kind == "end" else f"{kind!r} token"
        raise ParseError(f"expected {expected}, found {found}", where)

    # Values are (numerators, denominator) pairs of the integer kernel; the
    # polynomial is built once, from the whole value.

    def parse(self) -> BivariatePolynomial:
        if self.peek()[0] == "end":
            raise EmptyInput("empty polynomial text", 0)
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail("'+', '-', '*' or end of input")
        # sums and one-term products grow only as fast as the text: other
        # products and all powers are checked as they are built, the total here
        return _poly(*_within_budget(value))

    def expr(self) -> tuple[Numerators, int]:
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        num, den = self.term()
        if negate:
            num = {k: -n for k, n in num.items()}
        while self.peek()[0] in ("+", "-"):
            sign = -1 if self.advance()[0] == "-" else 1
            num, den = _add(num, den, *self.term(), sign)
        return num, den

    def term(self) -> tuple[Numerators, int]:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = _convolve(*value, *self.factor())
            if len(value[0]) > 1:  # a product of one-term factors grows like a sum
                _within_budget(value)
        return value

    def factor(self) -> tuple[Numerators, int]:
        base = self.base()
        if self.peek()[0] != "^":
            return base
        self.advance()
        kind, val, where = self.peek()
        if kind == "-":
            raise NonNaturalExponent("exponent must be a nonnegative integer", where)
        if kind != "int":
            self.fail("integer exponent")
        self.advance()
        if self.peek()[0] == "/":
            raise NonNaturalExponent(
                "fractional exponents are not polynomials", self.peek()[2]
            )
        return _bounded_power(base, int(val))

    def base(self) -> tuple[Numerators, int]:
        kind, val, where = self.peek()
        if kind == "var":
            self.advance()
            return ({(1, 0): 1} if val == "x" else {(0, 1): 1}), 1
        if kind == "int":
            self.advance()
            num, den = int(val), 1
            if self.peek()[0] == "/":
                self.advance()
                dkind, dval, dwhere = self.peek()
                if dkind != "int":
                    self.fail("integer denominator")
                self.advance()
                if dval == 0:
                    raise ParseError("zero denominator", dwhere)
                g = math.gcd(num, int(dval))
                num, den = num // g, int(dval) // g
            if not num:
                return {}, 1
            return {(0, 0): num}, den
        if kind == "(":
            self.advance()
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail("')'")
            self.advance()
            return inner
        self.fail("'x', 'y', a number or '('")


def _bounded_power(base: tuple[Numerators, int], n: int) -> tuple[Numerators, int]:
    """base^n, refused before any step would leave the input budget."""
    num, den = base
    degree = _degree(num)
    if degree * n > MAX_DEGREE:
        raise InputTooLarge(
            f"degree {degree * n} in one variable exceeds the cap of {MAX_DEGREE}"
        )
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


def parse_polynomial(text: str) -> BivariatePolynomial:
    """Parse polynomial text with explicit '*', '^' and rational constants.

    Raises InputTooLarge when the value, a power or a product of several
    terms exceeds ``MAX_DEGREE``, ``MAX_TERMS`` or ``MAX_COEFF_BITS``.
    """
    return _Parser(text).parse()


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
