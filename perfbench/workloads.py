"""Inputs of the benchmark workloads and the verdict each input must get.

Every workload is a list of CLI documents (argument vectors for
``jacmate.cli.run_command``) generated from a seed, so the same seed always
gives the same documents.  The polynomials are built here with a small
exact algebra of their own, so the inputs do not depend on the code under
measurement.

- ``tongue``: ``certify <p> --tongue --falsify 20 --seed <seed>`` on the
  fixture set.  The north-star pipeline; region checks dominate.
- ``falsify``: ``falsify <p> --q <q>`` for 80 sampled candidate mates per
  fixture.  The falsifier hit path; one grid and a bisection per query.
- ``negative``: pairs whose Jacobian is positive everywhere, so every query
  is a miss that searches all boxes.  A soundness control as well: any
  witness is a failure.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

# The six NO_MATE_FAMILY polynomials, the swap case and the planted
# critical point case (which forces x0 doubling in the tongue pipeline),
# each with its expanded coefficients for the exact algebra below.
FIXTURES = (
    ("y + x*y^2 + y^4", {(0, 1): 1, (1, 2): 1, (0, 4): 1}),
    ("y + x*y^3", {(0, 1): 1, (1, 3): 1}),
    ("y + y^2 + x*y^3", {(0, 1): 1, (0, 2): 1, (1, 3): 1}),
    ("y + x^2*y^2", {(0, 1): 1, (2, 2): 1}),
    ("y + y^3 + x^2*y^2", {(0, 1): 1, (0, 3): 1, (2, 2): 1}),
    ("y + y^2 + y^3 + x^2*y^2", {(0, 1): 1, (0, 2): 1, (0, 3): 1, (2, 2): 1}),
    ("x + x^2*y", {(1, 0): 1, (2, 1): 1}),
    ("y - (x^2 - 4*x + 6)*y^2", {(0, 1): 1, (2, 2): -1, (1, 2): 4, (0, 2): -6}),
)

TONGUE_TRIALS = 20
MATES_PER_FIXTURE = 80
MATE_DEGREE = 3
MATE_COEFF_BOUND = 3
# Translations of the negative base pair: SHIFTS_PER_PART per linear part,
# each coordinate in [-SHIFT_BOUND, SHIFT_BOUND]; the linear parts are fixed
# (see LINEAR_PARTS).
SHIFT_BOUND = 3
SHIFTS_PER_PART = 2
WITNESS_TOL = 1e-5
MIN_WITNESS_RATE = 0.9
CERTIFIED = "NO_REAL_JACOBIAN_MATE"
VERIFIED = "Verified"


# ---------------------------------------------------------------------------
# Exact polynomials as {(i, j): Fraction} for the monomial x^i * y^j
# ---------------------------------------------------------------------------


def poly(terms) -> dict:
    return {k: Fraction(v) for k, v in terms.items() if v}


X = poly({(1, 0): 1})
Y = poly({(0, 1): 1})
ONE = poly({(0, 0): 1})


def add(*ps) -> dict:
    out: dict = {}
    for p in ps:
        for k, v in p.items():
            out[k] = out.get(k, 0) + v
    return poly(out)


def scale(p: dict, c) -> dict:
    return poly({k: v * c for k, v in p.items()})


def mul(*ps) -> dict:
    out = ONE
    for p in ps:
        acc: dict = {}
        for (i, j), a in out.items():
            for (k, l), b in p.items():
                acc[(i + k, j + l)] = acc.get((i + k, j + l), 0) + a * b
        out = poly(acc)
    return out


def diff(p: dict, var: int) -> dict:
    """Partial derivative in x (var 0) or y (var 1)."""
    out = {}
    for (i, j), c in p.items():
        e = (i, j)[var]
        if e:
            out[(i - 1, j) if var == 0 else (i, j - 1)] = c * e
    return poly(out)


def jacobian(p: dict, q: dict) -> dict:
    return add(mul(diff(p, 0), diff(q, 1)), scale(mul(diff(p, 1), diff(q, 0)), -1))


def to_text(p: dict) -> str:
    """Render in the CLI grammar: explicit '*', rational coefficients."""
    if not p:
        return "0"
    parts = []
    for (i, j), c in sorted(p.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0])):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def pinchuk_pair() -> tuple[dict, dict]:
    """Pinchuk's (1994) map: Jac(P, Q) > 0 everywhere, yet P is not covered.

    With t = xy - 1, h = t(xt + 1) and f = (xt + 1)^2 (t^2 + y):
    P = f + h and Q = -t^2 - 6th(h + 1) - u, where
    u = 170fh + 91h^2 + 195fh^2 + 69h^3 + 75fh^3 + (75/4)h^4.
    """
    t = add(mul(X, Y), scale(ONE, -1))
    xt1 = add(mul(X, t), ONE)
    h = mul(t, xt1)
    f = mul(xt1, xt1, add(mul(t, t), Y))
    p = add(f, h)
    h2 = mul(h, h)
    h3 = mul(h2, h)
    u = add(
        scale(mul(f, h), 170),
        scale(h2, 91),
        scale(mul(f, h2), 195),
        scale(h3, 69),
        scale(mul(f, h3), 75),
        scale(mul(h2, h2), Fraction(75, 4)),
    )
    q = add(scale(mul(t, t), -1), scale(mul(t, h, add(h, ONE)), -6), scale(u, -1))
    return p, q


def affine_base_pair(a: int, b: int, c: int, d: int, e: int, g: int) -> tuple[dict, dict]:
    """(x, y + y^3 + x^2*y) after (x, y) -> (ax + by + e, cx + dy + g).

    The base Jacobian is 1 + 3y^2 + x^2 >= 1; with ad - bc = 1 the composed
    pair keeps it, so it has no real Jacobian zero.
    """
    u = add(scale(X, a), scale(Y, b), scale(ONE, e))
    v = add(scale(X, c), scale(Y, d), scale(ONE, g))
    return u, add(v, mul(v, v, v), mul(u, u, v))


# Every determinant-1 integer matrix with entries in {-1, 0, 1} (20 of them).
# The falsifier's descent work depends strongly on the linear part (up to
# 4x between these), so each negative pass runs all of them and the seed
# draws only the translations, which change the work by a few percent.
LINEAR_PARTS = tuple(
    m for m in itertools.product((-1, 0, 1), repeat=4) if m[0] * m[3] - m[1] * m[2] == 1
)


# ---------------------------------------------------------------------------
# Documents and their verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Document:
    argv: tuple[str, ...]
    exit_codes: tuple[int, ...]  # the exit codes that are right for this input


@dataclass(frozen=True)
class Verdict:
    problem: str | None  # why the document failed, None when it is right
    queries: int = 0  # falsifier queries answered in the document
    methods: tuple[str, ...] = ()  # the search method of each witness found
    boxes: int = 0  # boxes searched by the queries that found none

    @property
    def hits(self) -> int:
        return len(self.methods)


@dataclass(frozen=True)
class Workload:
    documents: tuple[Document, ...]
    min_witness_rate: float | None = None


def sample_mate(p: dict, rng: random.Random) -> dict:
    """A candidate mate by the rules of jacmate's random_trials.

    Degree at most 3, integer coefficients in [-3, 3], at least one
    y-dependent term, and Jac(p, q) not identically zero.
    """
    for _ in range(10):
        coeffs = {}
        for i in range(MATE_DEGREE + 1):
            for j in range(MATE_DEGREE + 1 - i):
                c = rng.randint(-MATE_COEFF_BOUND, MATE_COEFF_BOUND)
                if c:
                    coeffs[(i, j)] = c
        if not any(j >= 1 for _, j in coeffs):
            i = rng.randint(0, MATE_DEGREE - 1)
            j = rng.randint(1, MATE_DEGREE - i)
            coeffs[(i, j)] = rng.randint(1, MATE_COEFF_BOUND) * rng.choice((-1, 1))
        q = poly(coeffs)
        if jacobian(p, q):
            return q
    raise ValueError("10 samples in a row gave an identically zero Jacobian")


def falsify_argv(p: str, q: str, seed: int) -> tuple[str, ...]:
    # "--q=" and "--" keep argparse from reading a text such as "-x" as a flag
    return ("falsify", f"--q={q}", "--seed", str(seed), "--", p)


def tongue_documents(seed: int) -> Workload:
    docs = tuple(
        Document(
            ("certify", text, "--tongue", "--falsify", str(TONGUE_TRIALS), "--seed", str(seed)),
            (0,),
        )
        for text, _ in FIXTURES
    )
    return Workload(docs)


def falsify_documents(seed: int) -> Workload:
    rng = random.Random(seed)
    docs = []
    for text, terms in FIXTURES:
        p = poly(terms)
        for _ in range(MATES_PER_FIXTURE):
            q = to_text(sample_mate(p, rng))
            docs.append(Document(falsify_argv(text, q, seed), (0, 1)))
    return Workload(tuple(docs), min_witness_rate=MIN_WITNESS_RATE)


def negative_documents(seed: int) -> Workload:
    rng = random.Random(seed)
    p, q = pinchuk_pair()
    p_text, q_text = to_text(p), to_text(q)
    docs = [
        Document(("certify", p_text), (1,)),
        Document(falsify_argv(p_text, q_text, seed), (1,)),
    ]
    for a, b, c, d in LINEAR_PARTS:
        for _ in range(SHIFTS_PER_PART):
            e, g = (rng.randint(-SHIFT_BOUND, SHIFT_BOUND) for _ in range(2))
            u, v = affine_base_pair(a, b, c, d, e, g)
            docs.append(Document(falsify_argv(to_text(u), to_text(v), seed), (1,)))
    return Workload(tuple(docs))


WORKLOADS = {
    "tongue": tongue_documents,
    "falsify": falsify_documents,
    "negative": negative_documents,
}


def check(doc: Document, exit_code: int | None, out: str) -> Verdict:
    """Judge one document from its exit code and standard output."""
    if exit_code not in doc.exit_codes:
        return Verdict(f"exit code {exit_code}, expected one of {doc.exit_codes}")
    try:
        return _check_body(doc, exit_code, json.loads(out))
    except ValueError:
        return Verdict("output is not one JSON document")
    except (KeyError, TypeError, AttributeError) as exc:
        return Verdict(f"output lacks an expected field: {exc!r}")


def _check_body(doc: Document, exit_code: int, body: dict) -> Verdict:
    if doc.argv[0] == "falsify":
        found = body["outcome"] == "witness"
        if found != (exit_code == 0):
            return Verdict(f"outcome {body['outcome']!r} with exit code {exit_code}")
        if not found:
            return Verdict(None, queries=1, boxes=body["boxes_searched"])
        if not body["jac_exact"] <= WITNESS_TOL:
            return Verdict(f"witness with exact |Jac| {body['jac_exact']} > {WITNESS_TOL}")
        return Verdict(None, queries=1, methods=(body["method"],))
    if (body["conclusion"] == CERTIFIED) != (exit_code == 0):
        return Verdict(f"conclusion {body['conclusion']!r} with exit code {exit_code}")
    if "--tongue" in doc.argv and body["tongue"]["status"] != VERIFIED:
        return Verdict(f"tongue status {body['tongue']['status']!r}")
    trials = body.get("falsifier_trials", [])
    methods, boxes = [], 0
    for trial in trials:
        if trial["outcome"] != "witness":
            boxes += trial["min_record"]["boxes_searched"]
            continue
        witness = trial["witness"]
        if not witness["jac_exact"] <= WITNESS_TOL:
            return Verdict(f"trial {trial['index']} witness with exact |Jac| {witness['jac_exact']}")
        methods.append(witness["method"])
    return Verdict(None, queries=len(trials), methods=tuple(methods), boxes=boxes)
