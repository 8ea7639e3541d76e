"""Measure every workload over several seeds and write the figures as JSON.

    python3 perfbench/baseline.py --label "<commit>" --out perfbench/baseline.json

For each workload, runs ``run.py --trace 0`` once for each of seeds 1-10 and
reports each end-to-end metric's median, quartiles and spread (quartile
distance over median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles).  It then runs ``run.py --trace 1`` on seed 1 and reports each
per-layer metric, including the trace overhead.  Every run measures for
``run_seconds`` of BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEEDS = tuple(range(1, 11))
TRACED_SEEDS = (1,)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's JSON result, with the run's own wall time added."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = perf_counter() - start
    print(workload, seed, f"trace={trace}", result["correct"], result["failed"], flush=True)
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import numpy

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {
        "label": args.label,
        "machine": {
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "seconds": seconds,
        "seeds": list(SEEDS),
        "traced_seeds": list(TRACED_SEEDS),
        "workloads": {},
    }
    for workload in WORKLOADS:
        untraced = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = [run_once(workload, s, seconds, 1) for s in TRACED_SEEDS]
        runs = untraced + traced
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "run_wall_s": {
                "untraced_max": max(r["wall_s"] for r in untraced),
                "traced_max": max(r["wall_s"] for r in traced),
            },
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in untraced])
                for name in untraced[0]["metrics"]
            },
            "per_layer": {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            },
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
