"""Tests of the benchmark itself: its metric list, and a short run of each workload.

    python3 -m unittest discover -s perfbench -p "test_*.py"

The short runs take about a minute and a half.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SECOND_SEED = 2
SHORT_SECONDS = 1
KNOWN_FAILURES = {
    f"cli_session/{name}"
    for name in ("reject-lambdas-nan", "reject-lambdas-inf", "reject-list-file",
                 "reject-negative-tol")
}


def load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


class TestMetricList(unittest.TestCase):
    def setUp(self):
        self.spec = load("BENCHMARK.json")

    def test_names_and_units_match_what_the_benchmark_emits(self):
        for section, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in self.spec[section]}
            self.assertEqual(listed, emitted, section)

    def test_names_use_only_allowed_characters(self):
        names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[section]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_design_places_every_per_layer_metric(self):
        design = load("perfbench/design.json")
        placed = [name for row in design["per_layer"] for name in row["metrics"]]
        self.assertCountEqual(placed, PER_LAYER)
        workloads = {w["name"] for w in self.spec["workloads"]}
        for row in design["per_layer"]:
            self.assertLessEqual(set(row["workloads"]), workloads)
            self.assertLessEqual(set(row["moves"]), set(END_TO_END) | {"none"})


class TestShortRuns(unittest.TestCase):
    """Each workload on a seed other than the baseline's, shortened to one round."""

    def run_bench(self, workload: str, trace: int, cwd: Path = ROOT):
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(SECOND_SEED), "--seconds", str(SHORT_SECONDS),
                "--trace", str(trace)]
        return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)

    def test_every_workload_emits_every_metric_with_only_known_failures(self):
        spec = load("BENCHMARK.json")
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    units = {m["name"]: m["unit"] for m in spec[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))
                    full = json.loads((HERE / "out" / f"{workload}-seed{SECOND_SEED}-"
                                       f"trace{trace}.json").read_text())
                    failed = {f["op"] for f in full["failures"]}
                    expected = KNOWN_FAILURES if workload == "cli_session" else set()
                    self.assertEqual(failed, expected)
                    self.assertEqual(result["failed"], len(expected))

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = self.run_bench("exact_sweep", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
