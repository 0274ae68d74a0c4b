#!/usr/bin/env python3
"""Build and run the isomer repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (CMake, Release) into
.bench_build/perfbench/; later calls only rebuild what changed. The driver
binary then runs the workload on one host thread and prints its metrics; the
last line of standard output is the JSON summary. The exit code is the
driver's: 0 when every answer was correct, 1 when any was wrong, 2 on a bad
invocation or a failed build (nothing is printed on stdout then).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_sweep", "large_extent", "serve_repeat")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two cycles of at most two units (self-test)")
    parser.add_argument("--corrupt-answer",
                        choices=("query", "replay", "fingerprint"),
                        help="corrupt one checked answer or repeated "
                             "fingerprint (the gate's test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        command += ["--smoke", "1"]
    if args.corrupt_answer:
        command += ["--corrupt-answer", args.corrupt_answer]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 2
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
