"""Fast self-test of the benchmark at tiny sizes (n=2, a few points).

    python3 benchmarks/selftest.py

It checks that the metric tables agree with BENCHMARK.json, that every
metric is printed with its unit in both modes, that each correctness gate
trips on a deliberately wrong reference, and that the benchmark refuses to
run where the program's sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

import run

TINY = {
    "readout-n9": {"n": 2, "shots": [10, 1000]},
    "entpower-n5": {"n": 2, "alphas": [0.5, 1.0], "samples": 3},
    "verify-cli": {"n": 2, "samples": 5},
}
TINY_WORKLOADS = {
    name: replace(w, payload={**w.payload, **TINY[name]}) for name, w in run.WORKLOADS.items()
}


def setUpModule():
    sys.path.insert(0, str(run.SRC))


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(name, w.why) for name, w in run.WORKLOADS.items()],
        )
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))


class TinyRuns(unittest.TestCase):
    def check_run(self, name, trace, table):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            result = run.run(name, 5, 0.05, trace, workloads=TINY_WORKLOADS)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(
            {m: v["unit"] for m, v in result["metrics"].items()}, dict(table)
        )
        printed = out.getvalue()
        for metric, unit in table:
            self.assertRegex(printed, rf"# {name}: {metric} \S+ {unit}\n")
        self.assertIn(f"# {name}: check_fail_frac 0 ", printed)

    def test_every_metric_is_printed_with_its_unit(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name, trace=0):
                self.check_run(name, False, run.END_TO_END)
            with self.subTest(workload=name, trace=1):
                self.check_run(name, True, run.PER_LAYER)


class Gates(unittest.TestCase):
    def test_gate_trips_on_a_wrong_reference(self):
        for name, workload in TINY_WORKLOADS.items():
            with self.subTest(workload=name):
                case = run.Case(name, workload, seed=5)
                case.main_sweep()
                self.assertEqual(case.failed, 0)
                case.reference += 0.5
                case.main_sweep()
                self.assertGreater(case.failed, 0)

    def test_a_raised_error_or_missing_output_fails_every_point(self):
        case = run.Case("readout-n9", TINY_WORKLOADS["readout-n9"], seed=5)
        self.assertIsNone(run.read_csv(run.RUN_DIR / "no-such-output.csv"))
        self.assertEqual(case.gate(case.payload, None, case.reference), (2, 2))


class MissingProgram(unittest.TestCase):
    def test_refuses_to_run_without_the_sources(self):
        bare = run.RUN_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bench = bare / Path(__file__).parent.name
        bench.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in Path(__file__).parent.glob("*.py"):
            shutil.copy(path, bench)
        proc = subprocess.run(
            [sys.executable, str(bench / "run.py"), "--workload", "verify-cli",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
