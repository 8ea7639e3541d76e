"""Exact sparse bivariate polynomials over the rationals.

A polynomial is stored as a map from exponent pairs ``(i, j)`` to nonzero
``Fraction`` coefficients, representing ``sum a_ij * x^i * y^j``.  The zero
polynomial is the empty map.  All arithmetic on coefficients is exact;
floating point enters only through :meth:`BivariatePolynomial.evaluate_approx`
and the grid evaluator.

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
from typing import Mapping

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
    """Immutable sparse polynomial in x and y with Fraction coefficients."""

    # ``_plan`` is the float Horner plan, built on first use by evaluate_approx
    __slots__ = ("terms", "_plan")

    def __init__(self, terms: Mapping[LatticePoint, Fraction | int] | None = None):
        clean: dict[LatticePoint, Fraction] = {}
        for (i, j), c in (terms or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            c = Fraction(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_plan", None)

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
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BivariatePolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        return BivariatePolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BivariatePolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[LatticePoint, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return BivariatePolynomial(out)

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
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> frozenset[LatticePoint]:
        return frozenset(self.terms)

    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def coefficient(self, point: LatticePoint) -> Fraction:
        return self.terms.get(point, Fraction(0))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, y) -> Fraction:
        """Exact value at a rational point."""
        x, y = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self.terms.items():
            total += c * x**i * y**j
        return total

    def evaluate_approx(self, x: float, y: float) -> float:
        """Double-precision value, Horner in y over Horner-in-x rows.

        The rows are planned once per polynomial (see :func:`_horner_plan`).
        When a power overflows, the value is taken exactly at the same point
        instead: its float if representable, else infinity of its sign.
        """
        plan = self._plan
        if plan is None:
            plan = _horner_plan(self.terms)
            object.__setattr__(self, "_plan", plan)
        rows, last_j = plan
        try:
            acc = 0.0
            for dj, first, rest, last_i in rows:
                if dj:
                    acc *= y**dj
                h = first
                for di, c in rest:
                    h *= x**di
                    h += c
                if last_i:
                    h *= x**last_i
                acc += h
            if last_j:
                acc *= y**last_j
            return acc
        except OverflowError:
            exact = self.evaluate(x, y)
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf

    def restricted_to_x(self, x0: Fraction | int) -> list[Fraction]:
        """Coefficients of p(x0, y) as a univariate polynomial in y, ascending."""
        x0 = Fraction(x0)
        out = [Fraction(0)] * (self.degree_y() + 1)
        for (i, j), c in self.terms.items():
            out[j] += c * x0**i
        while out and out[-1] == 0:
            out.pop()
        return out

    # -- calculus -----------------------------------------------------------

    def partial_derivative(self, var: str) -> "BivariatePolynomial":
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        out: dict[LatticePoint, Fraction] = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = c * i
            elif var == "y" and j > 0:
                out[(i, j - 1)] = c * j
        return BivariatePolynomial(out)

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
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


def _coerce(value) -> "BivariatePolynomial":
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return BivariatePolynomial({(0, 0): Fraction(value)})
    return NotImplemented


def _horner_plan(terms: Mapping[LatticePoint, Fraction]) -> tuple[tuple, int]:
    """Float Horner plan: rows by descending y power, terms by descending x.

    Each row is ``(dj, first, rest, last_i)``: the y gap from the previous
    row, the leading coefficient, ``(x gap, coefficient)`` for the others and
    the lowest x power.  ``first`` is stored as ``0.0 + c``, the first step of
    the accumulation it replaces.  Gaps of 0 are skipped at evaluation:
    ``x**0`` is 1.0, and multiplying by 1.0 changes no float, so every value
    equals the per-call row loop bit for bit.
    """
    by_j: dict[int, list[tuple[int, float]]] = {}
    for (i, j), c in terms.items():
        by_j.setdefault(j, []).append((i, float(c)))
    rows = []
    prev_j = None
    for j in sorted(by_j, reverse=True):
        row = sorted(by_j[j], reverse=True)
        rest = tuple((i0 - i1, c) for (i0, _), (i1, c) in zip(row, row[1:]))
        dj = 0 if prev_j is None else prev_j - j
        rows.append((dj, 0.0 + row[0][1], rest, row[-1][0]))
        prev_j = j
    return tuple(rows), prev_j or 0


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

    def parse(self) -> BivariatePolynomial:
        if self.peek()[0] == "end":
            raise EmptyInput("empty polynomial text", 0)
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail("'+', '-', '*' or end of input")
        return value

    def expr(self) -> BivariatePolynomial:
        negate = False
        if self.peek()[0] in ("+", "-"):
            negate = self.advance()[0] == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self) -> BivariatePolynomial:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> BivariatePolynomial:
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
        return base ** int(val)

    def base(self) -> BivariatePolynomial:
        kind, val, where = self.peek()
        if kind == "var":
            self.advance()
            return BivariatePolynomial.variable(str(val))
        if kind == "int":
            self.advance()
            num = int(val)
            if self.peek()[0] == "/":
                self.advance()
                dkind, dval, dwhere = self.peek()
                if dkind != "int":
                    self.fail("integer denominator")
                self.advance()
                if dval == 0:
                    raise ParseError("zero denominator", dwhere)
                return BivariatePolynomial.constant(Fraction(num, int(dval)))
            return BivariatePolynomial.constant(num)
        if kind == "(":
            self.advance()
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail("')'")
            self.advance()
            return inner
        self.fail("'x', 'y', a number or '('")


def parse_polynomial(text: str) -> BivariatePolynomial:
    """Parse polynomial text with explicit '*', '^' and rational constants."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Free-standing ring operations
# ---------------------------------------------------------------------------


def jacobian(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """Jacobian determinant p_x * q_y - p_y * q_x, exactly."""
    return (
        p.partial_derivative("x") * q.partial_derivative("y")
        - p.partial_derivative("y") * q.partial_derivative("x")
    )


def apply_transform(p: BivariatePolynomial, t: Transform) -> BivariatePolynomial:
    """Substitute the axis symmetry ``t`` into ``p`` (exact, invertible)."""
    out: dict[LatticePoint, Fraction] = {}
    for (i, j), c in p.terms.items():
        if t.swap_xy:
            i, j = j, i
        if t.negate_x and i % 2:
            c = -c
        if t.negate_y and j % 2:
            c = -c
        out[(i, j)] = c
    return BivariatePolynomial(out)


def subtract_constant(p: BivariatePolynomial, t: Fraction | int) -> BivariatePolynomial:
    return p - Fraction(t)


def evaluate_on_grid(
    p: BivariatePolynomial, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Float values of p on the outer grid xs × ys, shape (len(xs), len(ys))."""
    X = np.asarray(xs, dtype=float)[:, None]
    Y = np.asarray(ys, dtype=float)[None, :]
    total = np.zeros((X.shape[0], Y.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), c in sorted(p.terms.items()):
            total += float(c) * X**i * Y**j
    return total
