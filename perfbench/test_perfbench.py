#!/usr/bin/env python3
"""The benchmark's own tests: tiny-scale runs through perfbench/run.py.

    python3 perfbench/test_perfbench.py

Builds pioqo_perfbench on first use (like run.py). Each run replays 2% of a
workload, so the whole suite takes well under a minute once built.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# drift_ssd is not gated by BENCHMARK.json (see README.md) but stays runnable.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["drift_ssd"]
TINY = ["--seconds", "0", "--scale", "0.02"]


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)] + TINY + list(extra),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def trace_hash_of(proc):
    return re.search(r"trace hash ([0-9a-f]{16})", proc.stdout).group(1)


class PerfbenchTest(unittest.TestCase):
    def test_every_named_metric_is_present_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float),
                                              name)
                    self.assertRegex(proc.stdout, r'"PIOQO_SIM_CHECKS": 1')

    def test_corrupted_row_count_fails_the_run(self):
        proc = run("cached_hdd", extra=["--corrupt-row-count"])
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("output check", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)

    def test_traced_run_reproduces_the_untraced_trace_hash(self):
        for workload in ("lookup_ssd", "scan_raid"):
            with self.subTest(workload=workload):
                untraced = run(workload, seed=7, trace=0)
                traced = run(workload, seed=7, trace=1)
                self.assertEqual(untraced.returncode, 0, untraced.stderr)
                self.assertEqual(traced.returncode, 0, traced.stderr)
                self.assertEqual(trace_hash_of(untraced),
                                 trace_hash_of(traced))

    def test_simulated_metrics_repeat_exactly_per_seed(self):
        sim = ("sim_p50_ms", "sim_p99_ms", "completed_ratio", "calib_sim_s")
        first, again, other = (result_of(run("lookup_ssd", seed=s))
                               for s in (3, 3, 4))
        for name in sim:
            self.assertEqual(first["metrics"][name], again["metrics"][name])
        self.assertNotEqual(first["metrics"]["sim_p50_ms"],
                            other["metrics"]["sim_p50_ms"])

    def test_fails_without_result_when_sources_are_missing(self):
        # A checkout holding only BENCHMARK.json and perfbench/.
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc = run("lookup_ssd", cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
