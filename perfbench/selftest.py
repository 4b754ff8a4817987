"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tiltbench import matrices, suites  # noqa: E402
from tiltbench.cli import Scenario  # noqa: E402
from tiltbench.suites import REGISTRY, SuiteDef  # noqa: E402

from tracer import Tracer  # noqa: E402
from verifier import run_round  # noqa: E402


def bench(workload, trace, seed=1, cwd=ROOT):
    """Run the benchmark briefly; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


class GateTest(unittest.TestCase):
    def test_negative_control_counts_failed_samples(self):
        scenario = Scenario.from_dict({"suites": ["negative_corrupted_tstructure"],
                                       "sample_budget": 3, "seed": 1})
        result = run_round(scenario)
        self.assertGreater(result.failed / result.attempted, 0)
        self.assertFalse(result.correct)

    def test_raising_suite_is_counted_as_crashed(self):
        def explode(budget, seed, bounds):
            raise RuntimeError("forced")

        broken = SuiteDef("snf_identities", "forced to raise", explode)
        scenario = Scenario.from_dict({"suites": ["snf_identities", "solve_kernel_duality"],
                                       "sample_budget": 2, "seed": 1})
        with mock.patch.dict(REGISTRY, {"snf_identities": broken}):
            result = run_round(scenario)
        self.assertEqual(result.crashed, ["snf_identities"])
        self.assertEqual((result.attempted, result.failed), (4, 2))
        self.assertFalse(result.correct)
        report = json.loads(result.report_json)
        by_name = {s["name"]: s for s in report["suites"]}
        self.assertEqual(by_name["snf_identities"]["failures"][0]["check"], "crash")
        self.assertTrue(by_name["solve_kernel_duality"]["passed"])

    def test_tracer_restores_the_program(self):
        mul, snf = matrices.IntMatrix.__mul__, suites.smith_normal_form
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(suites.smith_normal_form, snf)
            run_round(Scenario.from_dict({"suites": ["snf_identities"],
                                          "sample_budget": 2, "seed": 1}))
        finally:
            tracer.uninstall()
        self.assertIs(matrices.IntMatrix.__mul__, mul)
        self.assertIs(suites.smith_normal_form, snf)
        self.assertEqual(tracer.metrics([])["matrices.snf.calls"]["value"], 2)


class OutputTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        digests = set()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("qx-normal-forms", trace)
            self.assertEqual(code, 0)
            info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
            digests.add(info["digest"])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected)
            if trace:
                metrics = result["metrics"]
                self.assertEqual(metrics["modules.factor.calls"]["value"], 0)
                for name in ("freyd_kernel", "evaluate", "evaluate_map", "is_effaceable"):
                    self.assertEqual(metrics[f"freyd.{name}.calls"]["value"], 0)
                self.assertEqual(info["slowest_sample"]["suite"], "snf_polynomials")
        self.assertEqual(len(digests), 1, "same seed, same rounds, different digests")

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = bench("qx-normal-forms", 0, cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
