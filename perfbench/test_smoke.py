"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> tuple[int, dict, dict]:
    """Run the benchmark in this process; return its exit code, header and result."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[0]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_workloads_are_the_declared_ones(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in BENCHMARK["workloads"]))

    def test_end_to_end_metrics_and_no_errors(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, header, result = bench(workload, 0)
                self.assertEqual(code, 0)
                self.assertEqual(set(result["metrics"]), names)
                self.assertEqual(header["error_rate"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(result["correct"])

    def test_traced_metrics_and_wrappers_removed(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = bench(workload, 1)
                self.assertEqual(code, 0)
                self.assertEqual(set(result["metrics"]), names)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["metrics"]["matching.verdicts"]["value"], 0)
                self.assertEqual(spans.wrapped_attributes(), [])


if __name__ == "__main__":
    unittest.main()
