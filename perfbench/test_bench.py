#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_bench.py

Runs reduced versions (--small, 1 s) of every workload through run.py,
which builds the driver first if needed.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 424242  # never used while tuning the benchmark


def run(workload, seed, trace=0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--small"] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, spec):
        want = {m["name"]: m["unit"] for m in spec}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, HELD_OUT_SEED, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(result["correct"], proc.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, entry in result["metrics"].items():
                    self.assertIsInstance(entry["value"], (int, float),
                                          name)
                self.assertIn("failed_frac: 0 ", proc.stdout)
                self.assertIn('"SAC_AUDIT_ENABLED"', proc.stdout)

    def test_end_to_end_metrics_on_held_out_seed(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics_and_span_file(self):
        self.check(1, SPEC["per_layer"])
        for workload in WORKLOADS:
            path = os.path.join(ROOT, ".bench_out",
                                "spans-%s.json" % workload)
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(any(e["name"] == "harness.run" for e in events))


class PlantedDigest(unittest.TestCase):
    def expect_failure(self, workload, prefix):
        proc, result = run(workload, 1,
                           extra=["--plant-wrong-digest", prefix])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("digest mismatch", proc.stderr)
        return result

    def test_wrong_table_digest_fails(self):
        self.expect_failure("cold-reproduce", "table|cold-reproduce")

    def test_wrong_cell_digest_fails(self):
        self.expect_failure("warm-resweep", "cell|MDG")
        # sacd streams one manifest file name from several engines, so
        # each engine's digests are planted alone, and every cell of
        # that engine the seed-1 stream reaches must fail: the three
        # small workloads x 14 presets, x {standard, 2way} and x the 3
        # sampled presets.
        for engine, cells in (("exact-replay", 42),
                              ("stack-single-pass", 6),
                              ("sampled-livepoint", 9)):
            with self.subTest(engine=engine):
                result = self.expect_failure("sacd-mixed",
                                             "cell|*|" + engine)
                self.assertEqual(result["failed"], cells)


class BuildShape(unittest.TestCase):
    def test_refuses_unoptimised_build(self):
        build = os.path.join(ROOT, ".bench_out", "debug-build")
        for cmd in (["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Debug"],
                    ["cmake", "--build", build, "--target", "sacbench",
                     "-j", str(min(4, os.cpu_count() or 1))]):
            subprocess.run(cmd, cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
        proc = subprocess.run(
            [os.path.join(build, "sacbench"), "--workload",
             "cold-reproduce", "--small", "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 3)
        self.assertIn("refusing to measure an unoptimised build",
                      proc.stderr)
        self.assertEqual(proc.stdout, "")


class OutsideCheckout(unittest.TestCase):
    def test_refuses_without_sources(self):
        stripped = os.path.join(ROOT, ".bench_out", "stripped")
        shutil.rmtree(stripped, ignore_errors=True)
        os.makedirs(stripped)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), stripped)
        shutil.copytree(HERE, os.path.join(stripped, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, result = run(WORKLOADS[0], 1, cwd=stripped)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(stripped, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
