#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lookup_ssd --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild only
what changed. The last line of standard output is the result object:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

with every end-to-end metric of BENCHMARK.json for --trace 0 and every
per-layer metric for --trace 1. Any failed build, output check or metric
check exits non-zero without printing a result. Extra flags after the four
above (--scale, --corrupt-row-count) go to pioqo_perfbench unchanged; the
benchmark's own tests use them.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build(out):
    """Configures (once) and builds pioqo_perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pioqo sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "pioqo_perfbench"


def git_commit():
    # Only this checkout's own .git: git would otherwise search the parent
    # directories, outside the checkout.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("pioqo_perfbench printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} "
             f"extra={extra} wrong_unit={wrong}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    out = build_dir()
    binary = build(out)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", git_commit()]
    if args.trace:
        command += ["--trace-out",
                    str(out / f"trace-{args.workload}-seed{args.seed}.json")]
    command += extra
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pioqo_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"pioqo_perfbench exited with {run.returncode}")
    check_result(lines[-1], args.trace)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
