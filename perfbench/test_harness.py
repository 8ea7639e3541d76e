"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench        (or: python3 perfbench/test_harness.py)

Covers the workload generators, the correctness gate (a planted wrong exit
code, a crash and a changed output all count as failures), the layer trace
(intra-module calls are caught, the originals come back, and a traced run
stops when a function its metrics name is gone), the BLAS thread cap and the
metric names a real run prints against BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import LayerTrace  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402

import jacmate.cli  # noqa: E402
import jacmate.polygon  # noqa: E402
import jacmate.tongue  # noqa: E402
import jacmate.univariate  # noqa: E402
from jacmate.poly import BivariatePolynomial, parse_polynomial  # noqa: E402


def run_benchmark(workload: str, trace: int, **env: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, env={**os.environ, **env},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_documents(self):
        for make in wl.WORKLOADS.values():
            self.assertEqual(make(5), make(5))
        self.assertNotEqual(wl.falsify_documents(5), wl.falsify_documents(6))
        self.assertNotEqual(wl.negative_documents(5), wl.negative_documents(6))

    def test_texts_parse_to_the_generated_polynomials(self):
        for text, terms in wl.FIXTURES:
            self.assertEqual(parse_polynomial(text), BivariatePolynomial(wl.poly(terms)))
        p, q = wl.pinchuk_pair()
        for poly in (p, q, wl.poly({(0, 1): -1}), wl.poly({(2, 0): Fraction(-75, 4), (0, 0): 2})):
            self.assertEqual(parse_polynomial(wl.to_text(poly)), BivariatePolynomial(poly))

    def test_negative_pairs_have_positive_jacobians(self):
        x, y, one = wl.X, wl.Y, wl.ONE
        t = wl.add(wl.mul(x, y), wl.scale(one, -1))
        xt1 = wl.add(wl.mul(x, t), one)
        h = wl.mul(t, xt1)
        f = wl.mul(xt1, xt1, wl.add(wl.mul(t, t), y))
        inner = wl.add(t, wl.mul(f, wl.add(wl.scale(one, 13), wl.scale(h, 15))))
        expected = wl.add(wl.mul(t, t), wl.mul(inner, inner), wl.mul(f, f))
        self.assertEqual(wl.jacobian(*wl.pinchuk_pair()), expected)
        self.assertEqual(len(wl.LINEAR_PARTS), 20)
        for a, b, c, d in wl.LINEAR_PARTS:
            u, v = wl.affine_base_pair(a, b, c, d, 2, -1)
            jac = wl.jacobian(u, v)
            # 1 + 3v0^2 + u0^2 with u0, v0 the moved coordinates
            u0 = wl.add(wl.scale(x, a), wl.scale(y, b), wl.scale(one, 2))
            v0 = wl.add(wl.scale(x, c), wl.scale(y, d), wl.scale(one, -1))
            self.assertEqual(jac, wl.add(one, wl.scale(wl.mul(v0, v0), 3), wl.mul(u0, u0)))

    def test_mates_follow_the_sampling_rules(self):
        for doc in wl.falsify_documents(9).documents:
            q = parse_polynomial(doc.argv[1].removeprefix("--q="))
            self.assertTrue(any(j >= 1 for _, j in q.support()))
            self.assertLessEqual(max(i + j for i, j in q.support()), wl.MATE_DEGREE)
            for point in q.support():
                self.assertLessEqual(abs(q.coefficient(point)), wl.MATE_COEFF_BOUND)


class GateTest(unittest.TestCase):
    def runner(self, cli, argv, exit_codes):
        tally = run.Tally()
        return run.Runner(cli, (wl.Document(argv, exit_codes),), tally, SpeedProbe(60.0)), tally

    def test_planted_wrong_exit_code_is_a_failure(self):
        runner, tally = self.runner(jacmate.cli, ("certify", "y + x^2*y^2"), (1,))
        runner.run_document(0)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("exit code 0", tally.problems[0])

    def test_right_answer_passes(self):
        runner, tally = self.runner(jacmate.cli, ("certify", "y + x^2*y^2"), (0,))
        runner.run_document(0)
        runner.run_document(0)
        self.assertEqual((tally.attempted, tally.failed), (2, 0))

    def test_crash_and_changed_output_are_failures(self):
        def crash(argv):
            raise ZeroDivisionError("planted")

        runner, tally = self.runner(SimpleNamespace(run_command=crash), ("analyze", "x"), (0,))
        runner.run_document(0)
        self.assertEqual(tally.failed, 1)
        self.assertIn("uncaught ZeroDivisionError", tally.problems[0])

        outputs = iter(['{"conclusion": "NO_REAL_JACOBIAN_MATE", "n": 1}',
                        '{"conclusion": "NO_REAL_JACOBIAN_MATE", "n": 2}'])

        def drifting(argv):
            print(next(outputs))
            return 0

        runner, tally = self.runner(SimpleNamespace(run_command=drifting), ("certify", "x"), (0,))
        runner.run_document(0)
        runner.run_document(0)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("differs", tally.problems[0])

    def test_witness_on_a_negative_pair_is_a_failure(self):
        doc = wl.Document(wl.falsify_argv("x", "y", 0), (1,))
        out = json.dumps({"outcome": "witness", "jac_exact": 0.0})
        self.assertIsNotNone(wl.check(doc, 0, out).problem)
        miss = wl.check(doc, 1, json.dumps({"outcome": "min_record", "boxes_searched": 11}))
        self.assertEqual((miss.problem, miss.queries, miss.hits, miss.boxes), (None, 1, 0, 11))


class SpeedProbeTest(unittest.TestCase):
    def test_cadence_and_factor(self):
        speed = SpeedProbe(60.0)
        speed.take_if_due()
        speed.take_if_due()  # not due again for a minute
        self.assertEqual(len(speed.samples), 1)
        speed.samples[:] = [NOMINAL_S, 3 * NOMINAL_S, 2 * NOMINAL_S]
        self.assertAlmostEqual(speed.factor(), 2.0)
        self.assertAlmostEqual(speed.factor(1), 2.5)


class TraceTest(unittest.TestCase):
    def test_intra_module_calls_are_caught_and_originals_restored(self):
        original = jacmate.polygon.newton_polygon
        p = parse_polynomial("y + x^2*y^2")
        with LayerTrace() as trace:
            self.assertIsNot(jacmate.polygon.newton_polygon, original)
            jacmate.polygon.corollary_certificate(p)
            jacmate.univariate.isolate_roots([Fraction(-2), Fraction(0), Fraction(1)])
        self.assertIs(jacmate.polygon.newton_polygon, original)
        self.assertEqual(trace.calls("polygon.corollary_certificate"), 1)
        self.assertGreaterEqual(trace.calls("polygon.newton_polygon"), 1)  # same module
        self.assertGreaterEqual(trace.calls("poly.apply_transform"), 1)  # imported name
        self.assertGreaterEqual(trace.calls("polygon.endpoints"), 1)  # method
        self.assertGreaterEqual(trace.calls("univariate.squarefree_decomposition"), 1)
        self.assertGreaterEqual(trace.calls("univariate.normalize"), 1)  # count only
        stat = trace.stats["polygon.corollary_certificate"]
        self.assertGreater(stat.incl_s, 0.0)
        self.assertLess(stat.self_s, stat.incl_s)
        jacmate.polygon.corollary_certificate(p)
        self.assertEqual(trace.calls("polygon.corollary_certificate"), 1)

    def test_a_renamed_traced_function_stops_the_traced_run(self):
        module = vars(jacmate.tongue)
        module["check_no_critical_points_v2"] = module.pop("check_no_critical_points")
        try:
            argv = ["--workload", "tongue", "--seed", "1", "--seconds", "1"]
            self.assertEqual(run.main([*argv, "--trace", "1"]), 2)
        finally:
            module["check_no_critical_points"] = module.pop("check_no_critical_points_v2")
        self.assertIn("tongue.check_no_critical_points", run.TRACED)


class ThreadCapTest(unittest.TestCase):
    def test_numpy_is_not_loaded_before_the_cap(self):
        # OpenBLAS reads its thread count once, when numpy loads it
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
                "print('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(proc.stdout.strip(), "False", proc.stderr)


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))

    def test_a_run_prints_every_metric(self):
        lines, result = run_benchmark("falsify", 0, OPENBLAS_NUM_THREADS="64")
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIn("OPENBLAS_NUM_THREADS=1 ", lines[1])
        self.assertIn(lines[1].rpartition("blas_threads=")[2], ("1", "unknown"))
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]), [n for n, _ in run.END_TO_END])
        for name in [n for n, _ in run.END_TO_END] + ["doc_s_p95", "fail_ratio", "witness_rate"]:
            self.assertTrue(any(line.startswith(name + " ") for line in lines), name)

        lines, result = run_benchmark("falsify", 1)
        self.assertTrue(result["correct"])
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [n for n, _ in run.PER_LAYER])
        self.assertEqual(metrics["tongue.tongue_certificate.calls"]["value"], 0)
        self.assertEqual(metrics["falsifier.find_jacobian_zero.calls"]["value"], 640)
        hits = sum(metrics[f"falsifier.hits.{m}"]["value"] for m in run.SEARCH_METHODS)
        self.assertEqual(metrics["falsifier.witness_rate"]["value"], hits / 640)
        self.assertEqual(metrics["cli.run_command.s"]["unit"], "s")


if __name__ == "__main__":
    unittest.main()
