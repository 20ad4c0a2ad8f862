"""The benchmark's own tests.

    python3 -m unittest discover -s e2ebench/tests -v

Run from the repository root.  Each test drives e2ebench/run.py in its
--quick mode (a tiny version of the workload, a few seconds each), so the
whole file takes about a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(workload, trace=0, fault="none", seed=3):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--quick", "--fault", fault],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class QuickModeTest(unittest.TestCase):
    """Every workload prints every declared metric, with its unit."""

    def check(self, trace, kind):
        expected = declared(kind)
        for workload in workloads():
            with self.subTest(workload=workload):
                proc, result = run(workload, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                    # Quick runs are too short for rates and tails to mean
                    # much; they only have to be measured.
                    self.assertGreaterEqual(metric["value"], 0, name)
                if not trace:
                    self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
                stamp = json.loads(proc.stdout.strip().splitlines()[-2][len("stamp "):])
                for key in ("nproc", "cpu_model", "simd_tier", "build_type", "commit"):
                    self.assertIn(key, stamp)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class FaultTest(unittest.TestCase):
    """A wrong answer drives ok_frac below 1 and the exit code non-zero."""

    def check(self, workload, fault):
        proc, result = run(workload, fault=fault)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result, proc.stderr[-2000:])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1)

    def test_corrupted_reply(self):
        self.check("serve_lookup", "reply")

    def test_corrupted_reply_batch(self):
        self.check("serve_reload", "reply")

    def test_corrupted_block(self):
        self.check("campaign", "block")


class LadderRuleTest(unittest.TestCase):
    """The ladder stops at the first failing rate (tests/ladder_test.cpp)."""

    def test_ladder_rule(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        build = build if os.path.isabs(build) else os.path.join(ROOT, build)
        run("serve_lookup")  # configures and builds the benchmark tree
        made = subprocess.run(["cmake", "--build", build, "--target",
                               "e2ebench_ladder_test"], capture_output=True, text=True)
        self.assertEqual(made.returncode, 0, made.stdout[-2000:])
        proc = subprocess.run([os.path.join(build, "e2ebench_ladder_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
