"""Command line front end.

Exit codes: 0 for a certified conclusion or plain success, 1 when the tool
ran but could not certify (not covered, inconclusive, no witness), 2 for
usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .branches import (
    BranchLost,
    CONFIRMED,
    NoConfirmedBranch,
    NoConvergence,
    TraceConfig,
    branch_candidates,
    trace_branch,
    trace_to_csv,
)
from .certificate import (
    NO_REAL_JACOBIAN_MATE,
    _edge_dict,
    build_certificate,
    emit_certificate_json,
    tongue_to_dict,
)
from .falsifier import (
    DegenerateSampler,
    SearchConfig,
    ZeroWitness,
    find_jacobian_zero,
    random_trials,
)
from .poly import ParseError, apply_transform, parse_polynomial
from .polygon import (
    PointPolygon,
    corollary_certificate,
    newton_polygon,
    outer_edges,
    right_outer_edges,
)
from .render import render_polygon_svg, render_tongue_svg
from .tongue import GridSpec, VERIFIED, tongue_certificate

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
    try:
        edges = outer_edges(polygon)
    except PointPolygon:
        edges = []
    doc = {
        "input": str(p),
        "support": [list(pt) for pt in sorted(p.support())],
        "vertices": [list(v) for v in polygon.vertices],
        "outer_edges": [_edge_dict(e) for e in edges],
        "right_outer_edges": [_edge_dict(e) for e in edges if e.is_right],
    }
    _emit(args, json.dumps(doc, indent=2))
    return 0


def _cmd_certify(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    allow_swap = not args.no_swap
    criterion = corollary_certificate(p, allow_swap=allow_swap)

    tongue = None
    if args.tongue and criterion.satisfied:
        tongue = tongue_certificate(p)

    trials = None
    if args.falsify:
        cfg = SearchConfig(rng_seed=args.seed)
        trials = random_trials(p, args.falsify, cfg=cfg)

    doc = build_certificate(p, criterion, tongue=tongue, trials=trials)
    _emit(args, emit_certificate_json(doc))
    if args.svg:
        shown = apply_transform(p, criterion.transform_used)
        svg = render_polygon_svg(newton_polygon(shown), criterion)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    return 0 if doc.conclusion == NO_REAL_JACOBIAN_MATE else 1


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
    candidates = branch_candidates(p, edges[args.edge])
    if args.root is not None:
        if not 0 <= args.root < len(candidates):
            print(
                f"error: --root {args.root} out of range (have {len(candidates)})",
                file=sys.stderr,
            )
            return 2
        chosen = candidates[args.root]
    else:
        confirmed = [c for c in candidates if c.existence == CONFIRMED]
        if not confirmed:
            print("no confirmed real branch on this edge", file=sys.stderr)
            return 1
        chosen = confirmed[0]
    cfg = TraceConfig(x_start=args.x_start, x_end=args.x_end)
    try:
        trace = trace_branch(p, chosen, cfg)
    except (BranchLost, NoConvergence) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 1
    print(trace_to_csv(trace, p), end="")
    return 0


def _grid_from_args(args) -> GridSpec:
    return GridSpec(nx=args.nx, ny=args.ny, x_max=args.x_max)


def _cmd_tongue(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    tc = tongue_certificate(p, grid=_grid_from_args(args))
    _emit(args, json.dumps(tongue_to_dict(tc), indent=2))
    if args.svg and tc.region is not None:
        svg = render_tongue_svg(tc.region, tc.level_report)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    return 0 if tc.status == VERIFIED else 1


def _cmd_falsify(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    q = parse_polynomial(args.q)
    cfg = SearchConfig(rng_seed=args.seed)
    result = find_jacobian_zero(p, q, cfg)
    if isinstance(result, ZeroWitness):
        doc = {
            "outcome": "witness",
            "point": list(result.point),
            "jac_value": result.jac_value,
            "jac_exact": result.jac_exact,
            "method": result.method,
        }
        _emit(args, json.dumps(doc, indent=2))
        return 0
    doc = {
        "outcome": "min_record",
        "best_point": list(result.best_point),
        "best_abs_jac": result.best_abs_jac,
        "boxes_searched": result.boxes_searched,
    }
    _emit(args, json.dumps(doc, indent=2))
    return 1


def _cmd_render(args) -> int:
    p = parse_polynomial(_read_input(args.poly))
    if args.what == "polygon":
        cert = corollary_certificate(p)
        shown = apply_transform(p, cert.transform_used)
        svg = render_polygon_svg(newton_polygon(shown), cert)
    else:
        tc = tongue_certificate(p, grid=GridSpec(nx=400, ny=400, x_max=args.x_max))
        if tc.region is None:
            print(f"no tongue region: {'; '.join(tc.reasons)}", file=sys.stderr)
            return 1
        svg = render_tongue_svg(tc.region, tc.level_report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg + "\n")
    else:
        print(svg)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacmate",
        description="Certify that a plane polynomial has no real Jacobian mate.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_poly(sp):
        sp.add_argument("poly", help="polynomial text, or @path to a UTF-8 file")

    sp = sub.add_parser("analyze", help="Newton polygon and outer edges as JSON")
    add_poly(sp)
    sp.add_argument("--json", help="also write the JSON to this path")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("certify", help="run the edge criterion and emit a certificate")
    add_poly(sp)
    sp.add_argument("--no-swap", action="store_true", help="do not try swapping x and y")
    sp.add_argument("--tongue", action="store_true", help="add the numeric region checks")
    sp.add_argument("--falsify", type=int, default=0, metavar="N",
                    help="run N random candidate-mate trials")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", help="also write the certificate to this path")
    sp.add_argument("--svg", help="write the polygon figure to this path")
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("branch", help="trace a branch at infinity to CSV")
    add_poly(sp)
    sp.add_argument("--edge", type=int, default=0, metavar="K",
                    help="index into the right outer edges, sorted by slope")
    sp.add_argument("--x-start", type=float, default=10.0, metavar="A")
    sp.add_argument("--x-end", type=float, default=1000.0, metavar="B")
    sp.add_argument("--root", type=int, default=None, metavar="R",
                    help="pick the R-th leading-coefficient root instead of the first confirmed")
    sp.set_defaults(func=_cmd_branch)

    sp = sub.add_parser("tongue", help="build and check the tongue region")
    add_poly(sp)
    sp.add_argument("--nx", type=int, default=1000)
    sp.add_argument("--ny", type=int, default=1000)
    sp.add_argument("--x-max", type=float, default=None)
    sp.add_argument("--json", help="also write the report to this path")
    sp.add_argument("--svg", help="write the region figure to this path")
    sp.set_defaults(func=_cmd_tongue)

    sp = sub.add_parser("falsify", help="search for a Jacobian zero against a given q")
    add_poly(sp)
    sp.add_argument("--q", required=True, help="candidate mate polynomial")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", help="also write the result to this path")
    sp.set_defaults(func=_cmd_falsify)

    sp = sub.add_parser("render", help="emit an SVG figure")
    add_poly(sp)
    sp.add_argument("--what", choices=("polygon", "tongue"), default="polygon")
    sp.add_argument("--x-max", type=float, default=None)
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_render)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except (NoConfirmedBranch,) as exc:
        print(f"not available: {exc}", file=sys.stderr)
        return 1
    except (ValueError, DegenerateSampler) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
