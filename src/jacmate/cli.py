"""Command line front end.

Exit codes: 0 for a certified conclusion or plain success, 1 when the tool
ran but could not certify (not covered, inconclusive, no witness), 2 for
usage or input errors.

A verb executes only the layers it uses.  Every verb, and every ``-h``,
runs ``poly`` and ``polygon``, which this module imports; ``analyze``, and
an input those two refuse, need no more.  ``certify`` adds
``certificate``; ``tongue`` and ``--tongue`` add ``tongue`` and
``univariate``; ``falsify`` adds ``falsifier``, ``univariate`` and
``certificate``, as ``--falsify`` adds the first two; ``branch`` adds
``branches`` and ``univariate``; the drawings add ``render``, and only the
tongue drawing adds ``tongue`` and ``univariate``.  ``univariate``,
``tongue``, ``falsifier``, ``branches`` and ``certificate`` are registered
at import, in ``sys.modules`` and on the package, with
:class:`importlib.util.LazyLoader`, and each one compiles and runs on its
first attribute access.  So every layer is in ``sys.modules`` once
``jacmate.cli`` is imported, and the code reaches the deferred ones
through their module bindings (``falsifier.find_jacobian_zero``): a name
import such as ``from .tongue import FAILED`` would execute the module.

numpy loads only for the falsifier's float search, on its first call
(``falsify``, ``certify --falsify``), which runs only where no exact slice
decides and the miss proof is refused: a hit on a slice and a proved miss
never load it.  Every other command, the drawings included, never loads
it; only the drawing paths import :mod:`jacmate.render`.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import sys

from .poly import MAX_TRIALS, ParseError, apply_transform, parse_polynomial
from .polygon import (
    corollary_certificate,
    edge_to_dict,
    newton_polygon,
    outer_edges,
    right_outer_edges,
)


def _register(name: str):
    """The module ``jacmate.<name>``, executed on its first attribute access
    unless it is already imported."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[full] = importlib.util.module_from_spec(spec)
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


_register("univariate")  # the other layers reach it as ``uni``
tongue, falsifier, branches, certificate = map(
    _register, ("tongue", "falsifier", "branches", "certificate")
)

__all__ = ["run_command", "main"]


def _read_input(text: str) -> str:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            return fh.read()
    return text


def _emit(args, text: str) -> None:
    print(text)
    path = getattr(args, "json", None) or getattr(args, "out", None)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_analyze(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    polygon = newton_polygon(p)
    edges = outer_edges(polygon)
    doc = {
        "input": str(p),
        "support": [list(pt) for pt in sorted(p.support())],
        "vertices": [list(v) for v in polygon.vertices],
        "outer_edges": [edge_to_dict(e) for e in edges],
        "right_outer_edges": [edge_to_dict(e) for e in edges if e.is_right],
    }
    _emit(args, json.dumps(doc, indent=2))
    return 0


def _cmd_certify(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    allow_swap = not args.no_swap
    criterion = corollary_certificate(p, allow_swap=allow_swap)

    tc = None
    if args.tongue and criterion.satisfied:
        tc = tongue.tongue_certificate(p, criterion)

    trials = None
    if args.falsify:
        trials = falsifier.random_trials(p, args.falsify, seed=args.seed)

    doc = certificate.build_certificate(p, criterion, tongue=tc, trials=trials)
    _emit(args, certificate.emit_certificate_json(doc))
    if args.svg:
        from .render import render_polygon_svg

        shown = apply_transform(p, criterion.transform_used)
        svg = render_polygon_svg(newton_polygon(shown), criterion)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    return 0 if doc.conclusion == certificate.NO_REAL_JACOBIAN_MATE else 1


def _cmd_branch(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    edges = right_outer_edges(newton_polygon(p))
    if not edges:
        print("error: no right outer edges", file=sys.stderr)
        return 1
    if not 0 <= args.edge < len(edges):
        print(
            f"error: --edge {args.edge} out of range (have {len(edges)})",
            file=sys.stderr,
        )
        return 2
    candidates = branches.branch_candidates(p, edges[args.edge])
    if args.root is not None:
        if not 0 <= args.root < len(candidates):
            print(
                f"error: --root {args.root} out of range (have {len(candidates)})",
                file=sys.stderr,
            )
            return 2
        chosen = candidates[args.root]
        if chosen.existence != branches.CONFIRMED:
            print(
                f"root {args.root} is no confirmed real branch: {chosen.existence}",
                file=sys.stderr,
            )
            return 1
    else:
        confirmed = [c for c in candidates if c.existence == branches.CONFIRMED]
        if not confirmed:
            print("no confirmed real branch on this edge", file=sys.stderr)
            return 1
        chosen = confirmed[0]
    cfg = branches.TraceConfig(x_start=args.x_start, x_end=args.x_end)
    try:
        trace = branches.trace_branch(p, chosen, cfg)
    except branches.BranchLost as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        print("trace failed: the trace left the float range", file=sys.stderr)
        return 1
    print(branches.trace_to_csv(trace, p), end="")
    return 0


def _cmd_tongue(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    tc = tongue.tongue_certificate(p, corollary_certificate(p))
    _emit(args, json.dumps(certificate.tongue_to_dict(tc), indent=2))
    return 0 if tc.status == tongue.VERIFIED else 1


def _cmd_falsify(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    q = parse_polynomial(_read_input(args.q))
    outcome, body = certificate.search_result_to_dict(falsifier.find_jacobian_zero(p, q))
    _emit(args, json.dumps({"outcome": outcome, **body}, indent=2))
    return 0 if outcome == "witness" else 1


def _cmd_render(args) -> int:
    from .render import render_polygon_svg, render_tongue_svg

    p = parse_polynomial(_read_input(args.poly))
    if args.what == "polygon":
        cert = corollary_certificate(p)
        shown = apply_transform(p, cert.transform_used)
        svg = render_polygon_svg(newton_polygon(shown), cert)
    else:
        tc = tongue.tongue_certificate(p, corollary_certificate(p))
        if tc.region is None:
            print(f"no tongue region: {'; '.join(tc.reasons)}", file=sys.stderr)
            return 1
        svg = render_tongue_svg(tc.region, tc.level_report, args.x_max)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    else:
        print(svg)
    return 0


def count(text: str) -> int:
    """A trial count from 0 to MAX_TRIALS; argparse names the type in its error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    if n > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"exceeds the cap of {MAX_TRIALS} trials, got {n}")
    return n


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of the process and its verbs' parsers by name, built
    on first use, not at import.

    ``parse_args`` fills a fresh namespace from the defaults on every call,
    so no option carries over from one command to the next.
    """
    parser = argparse.ArgumentParser(
        prog="jacmate",
        description="Certify that a plane polynomial has no real Jacobian mate.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}

    def add_verb(name, func, summary):
        sp = verbs[name] = sub.add_parser(name, help=summary)
        sp.add_argument("poly", help="polynomial text, or @path to a UTF-8 file")
        sp.set_defaults(func=func)
        return sp

    sp = add_verb("analyze", _cmd_analyze, "Newton polygon and outer edges as JSON")
    sp.add_argument("--json", help="also write the JSON to this path")

    sp = add_verb("certify", _cmd_certify, "run the edge criterion and emit a certificate")
    sp.add_argument("--no-swap", action="store_true", help="do not try swapping x and y")
    sp.add_argument("--tongue", action="store_true", help="add the tongue region checks")
    sp.add_argument("--falsify", type=count, default=0, metavar="N",
                    help=f"run N random candidate-mate trials, at most {MAX_TRIALS}")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", help="also write the certificate to this path")
    sp.add_argument("--svg", help="write the polygon figure to this path")

    sp = add_verb("branch", _cmd_branch, "trace a branch at infinity to CSV")
    sp.add_argument("--edge", type=int, default=0, metavar="K",
                    help="index into the right outer edges, sorted by slope")
    sp.add_argument("--x-start", type=float, default=10.0, metavar="A")
    sp.add_argument("--x-end", type=float, default=1000.0, metavar="B")
    sp.add_argument("--root", type=int, default=None, metavar="R",
                    help="pick the R-th leading-coefficient root instead of the first confirmed")

    sp = add_verb("tongue", _cmd_tongue, "build and check the tongue region")
    sp.add_argument("--json", help="also write the report to this path")

    sp = add_verb("falsify", _cmd_falsify, "search for a Jacobian zero against a given q")
    sp.add_argument("--q", required=True, help="candidate mate polynomial")
    sp.add_argument("--seed", type=int, default=0,
                    help="ignored: the search is deterministic and the seed does not change it")
    sp.add_argument("--json", help="also write the result to this path")

    sp = add_verb("render", _cmd_render, "emit an SVG figure")
    sp.add_argument("--what", choices=("polygon", "tongue"), default="polygon")
    sp.add_argument("--x-max", type=float, default=None)
    sp.add_argument("--out", help="output path (default: stdout)")

    return parser, verbs


def run_command(argv) -> int:
    parser, verbs = _build_parser()
    argv = list(argv)
    try:
        # a verb's own parser reads the rest, which is what the top-level one
        # would hand it; the top-level one reads -h, no verb or an unknown one
        verb = verbs.get(argv[0]) if argv else None
        args = verb.parse_args(argv[1:]) if verb else parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
