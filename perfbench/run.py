"""Benchmark of the jacmate pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload tongue --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  The load is closed-loop with one caller in one
process: each document (a ``jacmate.cli.run_command`` argument vector) is
issued after the previous one returns.  A pass runs every document of the
workload once; passes repeat until ``--seconds`` is used up, with at least
three, so that a median pass exists and outputs are compared across passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the traced
ones (see layers.py), normalised to one pass, plus the trace overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; lines above it are a
readable report.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

from layers import LAYERS, LayerTrace, traced_names
from workloads import WORKLOADS, Document, Verdict, check

if TYPE_CHECKING:  # speed.py imports numpy, so main() imports it after cap_threads()
    from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 11  # timed fresh interpreters per run, after one untimed
SETUP_ARGV = ("analyze", "y + x^2*y^2")
SETUP_EDGES = [{"from": [0, 1], "to": [2, 2], "normal": [1, -2], "slope": "-2", "is_right": True}]
SETUP_TIMEOUT_S = 60
WARMUP_S = 2.0  # documents run before timing starts; at least one
MIN_PASSES = 3  # a median of passes, robust to one slow pass
P95_MIN_DOCS = 200  # documents per pass needed to report doc_s_p95
PROBE_EVERY_S = 0.25  # cadence of the machine-speed probe (speed.py)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("doc_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)

SEARCH_METHODS = ("ExactGridHit", "SignChangeBisection", "LocalMinimization")
PER_LAYER = (
    ("tongue.check_no_critical_points.s", "s"),
    ("tongue.check_no_critical_points.calls", "count"),
    ("tongue.critical_checks_per_cert", "ratio"),
    ("tongue.tongue_certificate.s", "s"),
    ("tongue.tongue_certificate.calls", "count"),
    ("tongue.build_tongue.s", "s"),
    ("tongue.check_level_sets.s", "s"),
    ("tongue.restriction_profile.calls", "count"),
    ("univariate.isolate_roots.s", "s"),
    ("univariate.isolate_roots.calls", "count"),
    ("univariate.count_roots.calls", "count"),
    ("univariate.ueval.calls", "count"),
    ("branches.trace_branch.s", "s"),
    ("branches.lowest_positive_branch.calls", "count"),
    ("branches.branch_candidates.s", "s"),
    ("poly.evaluate_approx.calls", "count"),
    ("poly.evaluate_on_grid.s", "s"),
    ("poly.evaluate_on_grid.calls", "count"),
    ("poly.evaluate.calls", "count"),
    ("poly.parse_polynomial.s", "s"),
    ("falsifier.find_jacobian_zero.s", "s"),
    ("falsifier.find_jacobian_zero.calls", "count"),
    ("falsifier.boxes_searched", "count"),
    *((f"falsifier.hits.{m}", "count") for m in SEARCH_METHODS),
    ("falsifier.witness_rate", "ratio"),
    ("polygon.corollary_certificate.calls", "count"),
    ("polygon.criterion_calls_per_doc", "ratio"),
    ("certificate.build_certificate.s", "s"),
    ("certificate.emit_certificate_json.s", "s"),
    ("cli.run_command.s", "s"),
    *((f"{layer}.calls", "count") for layer in LAYERS),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead", "ratio"),
)
# Functions whose per-layer metrics are read from the trace by name.  A run
# with --trace 1 stops if one of them is no longer traced, so a renamed
# function cannot read as a layer that went idle.
TRACED = frozenset(
    name.rsplit(".", 1)[0]
    for name, _ in PER_LAYER
    if name.endswith((".calls", ".s")) and name.rsplit(".", 1)[0] not in LAYERS
)


class Tally:
    """Documents attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.queries = 0
        self.hits = 0
        self.problems: list[str] = []

    def add(self, label: str, verdict: Verdict) -> None:
        self.attempted += 1
        self.queries += verdict.queries
        self.hits += verdict.hits
        if verdict.problem is not None:
            self.fail(1, f"{label}: {verdict.problem}")

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


class Runner:
    """Issues documents one at a time and checks every output."""

    def __init__(self, cli, documents: tuple[Document, ...], tally: Tally, speed: SpeedProbe):
        self.cli = cli  # looked up per call, so the trace sees run_command
        self.documents = documents
        self.tally = tally
        self.speed = speed
        self.first_output: dict[int, str] = {}
        # outputs repeat across passes, so these verdicts describe every pass
        self.first_verdict: dict[int, Verdict] = {}

    def run_document(self, index: int) -> float:
        self.speed.take_if_due()
        doc = self.documents[index]
        out, err = io.StringIO(), io.StringIO()
        crash = None
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.run_command(list(doc.argv))
        except (Exception, SystemExit) as exc:  # a traceback is a failed document
            code, crash = None, f"uncaught {type(exc).__name__}: {exc}"
        took = perf_counter() - start
        text = out.getvalue()
        verdict = Verdict(crash) if crash else check(doc, code, text)
        if verdict.problem is None and self.first_output.setdefault(index, text) != text:
            verdict = Verdict("output differs from the first run of this document")
        self.first_verdict.setdefault(index, verdict)
        self.tally.add(f"document {index} ({doc.argv[0]})", verdict)
        return took

    def warm_up(self) -> None:
        start = perf_counter()
        for index in range(len(self.documents)):
            if index and perf_counter() - start >= WARMUP_S:
                break
            self.run_document(index)

    def run_pass(self) -> tuple[list[float], float]:
        """Document latencies of one pass, and the pass's speed factor."""
        mark = len(self.speed.samples)
        self.speed.take()
        latencies = [self.run_document(i) for i in range(len(self.documents))]
        return latencies, self.speed.factor(mark)


def cap_threads() -> None:
    """Give numpy/BLAS one thread, here and in the set-up interpreters.

    jacmate makes no BLAS calls.  Idle OpenBLAS workers spin while numpy
    loads, so with more threads a fresh interpreter's set-up time depends on
    whether another core is free for them (see README.md).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup(tally: Tally, speed: SpeedProbe) -> tuple[list[float], float]:
    """Seconds for a fresh interpreter to import jacmate.cli and answer analyze,
    and the speed factor over the same window."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from jacmate.cli import run_command; sys.exit(run_command(sys.argv[2:]))"
    )
    times = []
    mark = len(speed.samples)
    for k in range(SETUP_RUNS + 1):
        speed.take()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), *SETUP_ARGV],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            cwd=ROOT,
        )
        took = perf_counter() - start
        problem = None
        if proc.returncode != 0:
            problem = f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        else:
            try:
                edges = json.loads(proc.stdout)["right_outer_edges"]
            except (ValueError, KeyError):
                edges = None
            if edges != SETUP_EDGES:
                problem = f"right outer edges {edges!r}, expected {SETUP_EDGES!r}"
        tally.add("setup analyze", Verdict(problem))
        if k:  # the first spawn also fills the bytecode cache
            times.append(took)
    return times, speed.factor(mark)


def blas_threads() -> str:
    """Threads of the OpenBLAS loaded in this process, as OpenBLAS reports them."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for path in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def layer_metrics(trace, searches: list[Verdict], traced_passes: int, docs_per_pass: int,
                  factor: float, traced_s: float, untraced_s: float) -> dict:
    """Per-layer metrics for one traced pass; times in nominal seconds.

    ``searches`` holds one verdict per document of a pass; the falsifier
    counters come from the documents' JSON (methods and boxes searched).
    """
    n = traced_passes
    m = {}
    # "<layer>.<function>.calls" and "<layer>.<function>.s" come straight
    # from the trace; the rest are derived below.
    for name, unit in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.endswith(".calls") and base not in LAYERS:
            m[name] = trace.calls(base) / n
        elif name.endswith(".s"):
            m[name] = trace.seconds(base) / n / factor
    for layer in LAYERS:
        calls, self_s = trace.layer_totals(layer)
        m[f"{layer}.calls"] = calls / n
        m[f"{layer}.self_s"] = self_s / n / factor
    certs = trace.calls("tongue.tongue_certificate")
    m["tongue.critical_checks_per_cert"] = (
        trace.calls("tongue.check_no_critical_points") / certs if certs else 0.0
    )
    m["polygon.criterion_calls_per_doc"] = (
        trace.calls("polygon.corollary_certificate") / (n * docs_per_pass)
    )
    m["falsifier.boxes_searched"] = sum(v.boxes for v in searches)
    methods = [method for v in searches for method in v.methods]
    for method in SEARCH_METHODS:
        m[f"falsifier.hits.{method}"] = methods.count(method)
    queries = sum(v.queries for v in searches)
    m["falsifier.witness_rate"] = len(methods) / queries if queries else 0.0
    m["trace.pass_s"] = traced_s
    m["trace.untraced_pass_s"] = untraced_s
    m["trace.overhead"] = traced_s / untraced_s - 1
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "jacmate" / "__init__.py").is_file():
        print(f"error: no jacmate package under {SRC}", file=sys.stderr)
        return 2

    cap_threads()
    sys.path.insert(0, str(SRC))
    import numpy  # after cap_threads, so the thread caps apply

    import jacmate
    import jacmate.cli
    from speed import SpeedProbe

    if SRC not in Path(jacmate.__file__).resolve().parents:
        print(f"error: jacmate was imported from {jacmate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    missing = sorted(TRACED - traced_names()) if args.trace else []
    if missing:
        print(f"error: per-layer metrics name untraced functions: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    speed = SpeedProbe(PROBE_EVERY_S)
    setup, setup_factor = measure_setup(tally, speed)
    runner = Runner(jacmate.cli, workload.documents, tally, speed)
    runner.warm_up()

    trace = LayerTrace() if args.trace else None

    # (latencies, speed factor) per pass
    untraced: list[tuple[list[float], float]] = []
    traced: list[tuple[list[float], float]] = []
    start = perf_counter()
    while True:
        if trace is not None and len(untraced) > len(traced):
            with trace:
                traced.append(runner.run_pass())
        else:
            untraced.append(runner.run_pass())
        passes = len(untraced) + len(traced)
        elapsed = perf_counter() - start
        # stop once another pass would end more than half a pass late
        if passes >= MIN_PASSES and elapsed * (1 + 0.5 / passes) >= args.seconds:
            break

    rate = tally.hits / tally.queries if tally.queries else 0.0
    if workload.min_witness_rate is not None and rate < workload.min_witness_rate:
        tally.fail(tally.queries - tally.hits, f"witness rate {rate:.3f} < {workload.min_witness_rate}")

    def nominal(runs):
        """Pass times and document latencies, in nominal seconds."""
        return ([sum(lat) / f for lat, f in runs], [t / f for lat, f in runs for t in lat])

    pass_s, doc_s = nominal(untraced)
    docs = len(workload.documents)
    e2e = {
        "setup_s": statistics.median(setup) / setup_factor,
        "run_s": statistics.median(pass_s),
        "doc_s_p50": statistics.median(doc_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(sum(lat) for lat, _ in untraced),
        "doc_s_p50": statistics.median(t for lat, _ in untraced for t in lat),
    }
    units = dict(END_TO_END)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"# nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS[:2])
        + f" blas_threads={blas_threads()}"
    )
    print(
        f"# closed loop, 1 caller: {docs} documents per pass, {len(untraced)} untraced "
        f"and {len(traced)} traced passes, {len(doc_s)} timed documents"
    )
    print(
        f"# speed factor (probe time / nominal, {len(speed.samples)} probes): "
        f"{statistics.median(f for _, f in untraced):.4g} over passes, {setup_factor:.4g} over set-up"
    )
    for name, value in e2e.items():
        raw = f"  (wall {wall[name]:.6g} s)" if name in wall else ""
        print(f"{name:<14} {value:.6g} {units[name]}{raw}")
    if docs >= P95_MIN_DOCS:
        p95 = statistics.quantiles(doc_s, n=20)[18]
        print(f"{'doc_s_p95':<14} {p95:.6g} s (n={len(doc_s)})")
    else:
        print(f"{'doc_s_p95':<14} n/a ({docs} documents per pass < {P95_MIN_DOCS})")
    print(f"{'fail_ratio':<14} {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    print(f"{'witness_rate':<14} {rate:.6g} ({tally.hits}/{tally.queries} queries)")
    for problem in tally.problems:
        print(f"# FAIL {problem}")

    if trace is not None:
        metrics = layer_metrics(
            trace, list(runner.first_verdict.values()), len(traced), docs,
            statistics.fmean(f for _, f in traced),
            statistics.median(nominal(traced)[0]), statistics.median(pass_s),
        )
        chosen = PER_LAYER
        for name, unit in PER_LAYER:
            print(f"{name:<40} {metrics[name]:.6g} {unit}")
    else:
        metrics, chosen = e2e, END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
