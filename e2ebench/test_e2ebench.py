#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 e2ebench/test_e2ebench.py [-v] [TestName ...]

Run from the root of a checkout; it builds the benchmark like run.py.
  - strict command line: unknown flags and bad values exit 2 with a
    one-line usage and print no result;
  - work identity: one worker and four workers do the same work (same
    work digest), and every run's passes agree with each other;
  - failure counting: a deliberately wrong expected output makes
    ok_frac < 1, correct false and the exit code nonzero;
  - the printed metrics are exactly those BENCHMARK.json declares, with
    the same units.
The work-identity test runs every workload twice (about two minutes,
most of it the one-worker loop run).
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                           ".bench_build"))
BINARY = None


def setUpModule():
    global BINARY
    os.makedirs(BUILD_DIR, exist_ok=True)
    BINARY = run.build(BUILD_DIR)
    if BINARY is None:
        raise RuntimeError("e2ebench build failed")


def bench(*args):
    p = subprocess.run([BINARY, *args], cwd=BUILD_DIR,
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    m = re.search(r"work digest ([0-9a-f]{16})", p.stdout)
    return p, result, m.group(1) if m else None


class StrictCli(unittest.TestCase):
    BAD = [
        [],
        ["--help"],
        ["--workload", "hunt", "--bogus", "1"],
        ["--workload", "nope"],
        ["--workload", "hunt", "--seed", "-1"],
        ["--workload", "hunt", "--seed"],
        ["--workload", "hunt", "--trace", "2"],
        ["--workload", "hunt", "--workers", "0"],
        ["--workload", "hunt", "--seconds", "1.5"],
    ]

    def test_runner_rejects_bad_flags(self):
        for argv in self.BAD:
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                *argv], capture_output=True, text=True)
            self.assertEqual(p.returncode, 2, argv)
            self.assertEqual(p.stdout, "", argv)
            self.assertEqual(len(p.stderr.strip().splitlines()), 1, argv)
            self.assertTrue(p.stderr.startswith("usage:"), argv)

    def test_binary_rejects_bad_flags(self):
        for argv in self.BAD:
            p, result, _ = bench(*argv)
            self.assertEqual(p.returncode, 2, argv)
            self.assertIsNone(result, argv)
            self.assertEqual(len(p.stderr.strip().splitlines()), 1, argv)


class WorkIdentity(unittest.TestCase):
    def test_one_and_four_workers_do_the_same_work(self):
        for workload in ("hunt", "loop", "harden"):
            digests = []
            for workers in ("1", "4"):
                p, result, digest = bench("--workload", workload,
                                          "--seed", "5", "--seconds", "1",
                                          "--workers", workers)
                # Each run compares its own passes, so a zero exit also
                # means its passes agreed.
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertTrue(result["correct"])
                digests.append(digest)
            self.assertIsNotNone(digests[0])
            self.assertEqual(digests[0], digests[1], workload)


class MetricsMatchBenchmarkJson(unittest.TestCase):
    def test_every_declared_metric_is_printed_with_its_unit(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p, result, _ = bench("--workload", "harden", "--seed", "1",
                                 "--seconds", "1", "--trace", trace)
            self.assertEqual(p.returncode, 0, p.stderr)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want, key)
            if trace == "1":
                self.assertIn("tracing overhead:", p.stdout)


class FailuresAreCounted(unittest.TestCase):
    def test_wrong_expectation_fails_the_run(self):
        for workload in ("harden", "hunt"):
            p, result, _ = bench("--workload", workload, "--seed", "1",
                                 "--seconds", "1", "--break-check")
            self.assertNotEqual(p.returncode, 0, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)
            self.assertIn("CHECK FAILED", p.stderr)


if __name__ == "__main__":
    unittest.main()
