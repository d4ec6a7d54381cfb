#!/usr/bin/env python3
"""Tests of the engine benchmark, run at a tiny size.

    python3 perfbench/test_bench.py

Builds the benchmark the way run.py does (into .bench_build, or
$CARGO_TARGET_DIR), then runs every workload small enough to finish in
about a second each.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

TINY = ["--sources", "4", "--per-source", "200", "--epochs", "30"]
# Every workload listed in BENCHMARK.json, plus t2t-adaptive, which it
# leaves out (at this size its CPU budget never binds).
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["t2t-adaptive"]
# Largest |trace.overhead| accepted: the traced block must run within this
# share of the untraced threads=1 block's wall time.
OVERHEAD_BAND = 0.5


def parse(stdout):
    """Returns (printed metrics {name: (value, unit)}, check lines {name: ok},
    the final JSON object)."""
    metrics, checks = {}, {}
    lines = stdout.strip().splitlines()
    for line in lines:
        parts = line.split()
        if parts and parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts and parts[0] == "check":
            checks[" ".join(parts[1:-1])] = parts[-1] == "ok"
    return metrics, checks, json.loads(lines[-1])


class EngineBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def bench(self, workload, trace, *extra, env=None):
        cmd = [self.binary, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace)] + TINY + list(extra)
        return subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)

    def test_every_workload_is_correct_and_complete(self):
        for workload in WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    metrics, checks, result = parse(proc.stdout)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    # Traced and untraced digests agree, and both match the
                    # all-SP reference.
                    self.assertTrue(checks["digest traced == untraced"])
                    self.assertTrue(checks["digest threads=nproc == threads=1"])
                    self.assertTrue(checks["digest == all-SP reference"])
                    self.assertTrue(
                        checks["traced replay shipped the same drains"])
                    self.assertGreaterEqual(metrics["trace.coverage"][0], 0.95)
                    # Every named metric is printed with its unit, and the
                    # JSON carries exactly the metrics of this mode.
                    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
                        self.assertIn(m["name"], metrics)
                        self.assertEqual(metrics[m["name"]][1], m["unit"])
                    self.assertIn("failed_share", metrics)
                    want = {m["name"]: m["unit"] for m in BENCH[listed]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_traced_block_stands_for_the_engine(self):
        # The traced block skips the BuildingBlock's own bookkeeping, and
        # its spans cover its own epochs only, so its wall time is compared
        # with the untraced threads=1 block's. Full size per source, so that
        # timer noise does not dominate.
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = self.bench(workload["name"], 1, "--sources", "4",
                                  "--per-source", "2000", "--epochs", "60")
                self.assertEqual(proc.returncode, 0, proc.stdout)
                metrics, _, _ = parse(proc.stdout)
                self.assertLessEqual(abs(metrics["trace.overhead"][0]),
                                     OVERHEAD_BAND)

    def test_adaptive_plan_misses_reference_under_binding_budget(self):
        # Known engine defect (README, "Known engine defect"): records parked
        # in stage queues when a window closes come out later as duplicate
        # rows. Full size per source, one block of 200 timed epochs: the
        # budget step lands three epochs before a window closes. Once the
        # reported watermark holds parked records back, the reference check
        # passes and the assertions below must flip.
        proc = self.bench("t2t-adaptive", 0, "--sources", "2",
                          "--per-source", "2000", "--epochs", "200",
                          "--repetitions", "1")
        _, checks, result = parse(proc.stdout)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertFalse(result["correct"])
        self.assertIn("digest == all-SP reference", checks)
        self.assertFalse(checks["digest == all-SP reference"])
        # It is the only failed check: every block ran to completion.
        failed = [name for name, ok in checks.items() if not ok]
        self.assertEqual(failed, ["digest == all-SP reference"])

    def test_mismatch_exits_nonzero(self):
        proc = self.bench("s2s-local", 0, "--inject-mismatch")
        self.assertNotEqual(proc.returncode, 0)
        _, checks, result = parse(proc.stdout)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertFalse(checks["digest threads=nproc == threads=1"])

    def test_refuses_jarvis_environment(self):
        env = dict(os.environ, JARVIS_THREADS="4")
        proc = self.bench("s2s-local", 0, env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("JARVIS_THREADS", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_fails_without_the_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ cannot
        # build: run.py exits nonzero and prints no result.
        alone = os.path.join(run.build_dir(), "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "s2s-local",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, env=env, capture_output=True, text=True, timeout=120)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
