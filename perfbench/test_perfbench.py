"""Self-tests of the benchmark.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
    )


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # 0 root [0, 10]
        #   1 a [1, 4]      2 a's child [2, 3]
        #   3 b [3, 6]      overlaps a: the root's children cover [1, 6]
        #   4 c [8, 12]     clipped to the root: covers [8, 10]
        # 5 second root [20, 21]
        parent = array("i", [-1, 0, 1, 0, 0, -1])
        start = array("d", [0, 1, 2, 3, 8, 20])
        end = array("d", [10, 4, 3, 6, 12, 21])
        got = list(spans.self_times(parent, start, end))
        self.assertEqual(got, [3.0, 2.0, 1.0, 3.0, 4.0, 1.0])

    def test_layer_self_times_account_for_the_root(self):
        tracer = spans.Tracer()
        leaf = tracer.wrap("isprime.aliquot", lambda n: n)
        mid = tracer.wrap("aliquot.verify_cycle", lambda: [leaf(n) for n in range(50)])
        inner = tracer.wrap("aliquot.classify_type1", lambda: mid())
        root = tracer.wrap("bench.iteration", lambda: [inner() for _ in range(3)])
        root()
        tracer.current_iteration = 1
        root()
        aggs = spans.aggregate(tracer)
        self.assertEqual(sorted(aggs), [0, 1])
        for agg in aggs.values():
            names, layers = agg["names"], agg["layers"]
            self.assertEqual(names["isprime.aliquot"][0], 150)
            self.assertEqual(names["aliquot.verify_cycle"][0], 3)
            wall = names["bench.iteration"][1]
            self.assertAlmostEqual(sum(v[2] for v in layers.values()), wall, places=9)
            # aliquot spans nest inside each other: the layer's time counts
            # the outermost ones only.
            self.assertAlmostEqual(layers["aliquot"][1], names["aliquot.classify_type1"][1], places=9)


class SpecTest(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        names = [w["name"] for w in SPEC["workloads"]]
        for entry in SPEC["workloads"]:
            self.assertEqual(set(entry), {"name", "why"})
            self.assertLessEqual(len(entry["why"]), 200)
        for entry in SPEC["end_to_end"]:
            self.assertEqual(set(entry), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < entry["bound"] <= 0.25)
        for entry in SPEC["per_layer"]:
            self.assertEqual(set(entry), {"name", "unit", "better"})
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(entry["unit"], UNIT)
            self.assertIn(entry["better"], ("higher", "lower"))
            names.append(entry["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower"},
                      [{k: e[k] for k in ("name", "unit", "better")} for e in SPEC["end_to_end"]])
        self.assertEqual(
            max(e["bound"] for e in SPEC["end_to_end"]),
            next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "setup_s"),
        )


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, at tiny sizes."""

    def check_metrics(self, workload: str, trace: int) -> None:
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))
        if trace:
            self.assertIn("tracing overhead", proc.stderr)
        else:
            for m in result["metrics"].values():
                self.assertGreater(m["value"], 0)

    def test_workloads(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_metrics(workload, trace)

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("--workload", "census_bsgs", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
