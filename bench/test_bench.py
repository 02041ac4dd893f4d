"""Self-tests of the benchmark's own machinery.

    python3 bench/test_bench.py

They show that a wrong reference value is counted as a failure, that the
memory guard refuses an oversized dense job, that nested spans yield self
times, and that BENCHMARK.json names exactly the metrics the code reports.
"""
from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_SWEEP = {"sigma": 1.0, "beta": 4.0, "jobs": [[256, 2, 1]], "polys": [[[0.3, 1.0, 0.0, 0.2], [1.0, 0.0, 0.5, 0.0]]]}


def run_steps(steps) -> None:
    for compute, check in steps:
        check(compute())


class ChecksTest(unittest.TestCase):
    def test_close_counts_a_wrong_reference_as_failure(self):
        checks = workloads.Checks()
        checks.close("right", 0.5, 0.5 + 1e-13, 1e-12)
        checks.close("wrong", 0.5, 0.75, 1e-3)
        checks.close("nan", float("nan"), 0.0, 1e-3)
        self.assertEqual((checks.attempted, checks.failed), (3, 2))

    def test_sweep_with_wrong_closed_form_fails(self):
        checks = workloads.Checks()
        run_steps(workloads.spectrum_sweep_steps(SMALL_SWEEP, checks, {}))
        self.assertEqual(checks.failed, 0, checks.failures)
        right = workloads.closed_theta
        workloads.closed_theta = lambda *a: right(*a) * 1.01
        try:
            wrong = workloads.Checks()
            run_steps(workloads.spectrum_sweep_steps(SMALL_SWEEP, wrong, {}))
        finally:
            workloads.closed_theta = right
        self.assertEqual(wrong.attempted, checks.attempted)
        self.assertEqual(wrong.failed, 2)  # theta-closed-form, once per family
        self.assertTrue(all("theta-closed-form" in f for f in wrong.failures))

    def test_oracle_inputs_pass_their_checks(self):
        inputs = run.make_inputs("exact-oracle", 7)
        inputs["pmfs"] = [p for p in inputs["pmfs"] if len(p["atoms"]) <= 10]
        inputs["pairs"] = inputs["pairs"][:3]
        checks = workloads.Checks()
        run_steps(workloads.exact_oracle_steps(inputs, checks, {}))
        self.assertGreater(checks.attempted, 0)
        self.assertEqual(checks.failed, 0, checks.failures)


class InputsTest(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.make_inputs(workload, 3), run.make_inputs(workload, 3))
        self.assertNotEqual(run.make_inputs("exact-oracle", 3), run.make_inputs("exact-oracle", 4))

    def test_memory_guard(self):
        seven_gib = 7 * 2**30
        run.check_memory(run.SWEEP_JOBS, seven_gib)
        self.assertGreater(run.dense_bytes(4096, 4, 3), 6 * 2**30)
        with self.assertRaises(run.BenchError):
            run.check_memory(run.SWEEP_JOBS + [(4096, 4, 3)], seven_gib)

    def test_tail(self):
        self.assertIsNone(run.tail([1.0] * 10))
        self.assertEqual(run.tail([float(i) for i in range(1, 31)]), 20.0)


class TracerTest(unittest.TestCase):
    def test_nested_spans_give_self_times(self):
        import clt_spectra
        from clt_spectra import densities, operators

        cfg = densities.GridConfig(node_count=256)
        kern = operators.build_kernel(densities.build_density(densities.DistributionSpec.gaussian(1.0), cfg), 2, 1, cfg)
        original = operators.gram_matrix
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(operators.gram_matrix, original)
            self.assertIs(clt_spectra.gram_matrix, operators.gram_matrix)
            operators.spectrum(kern)
        finally:
            tracer.uninstall()
        self.assertIs(operators.gram_matrix, original)
        by_name = {s["name"]: s for s in tracer.spans}
        root = by_name["operators.spectrum"]
        self.assertEqual(by_name["operators.gram_matrix"]["parent"], root["id"])
        self.assertEqual(by_name["operators.classify_trivial"]["parent"], root["id"])
        times = spans.self_times(tracer.spans)
        total = sum(t for _, t in times.values())
        self.assertAlmostEqual(total, root["t1"] - root["t0"], places=9)
        self.assertEqual(tracer.sizes["operators.spectrum.dim_max"], 256)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]], spans.per_layer_metrics())
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)


if __name__ == "__main__":
    unittest.main()
