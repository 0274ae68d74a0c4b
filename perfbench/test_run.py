#!/usr/bin/env python3
"""The benchmark's own test: short smoke runs of every workload.

Run from the root of a checkout:

    python3 perfbench/test_run.py

It checks that every end-to-end and per-layer metric named in BENCHMARK.json
is printed with its unit on every workload, that two runs of one seed print
identical simulated figures and work counts on every workload, that the
correctness gate trips on a deliberately corrupted answer (plain query and
traced replay) and the determinism self-check on a corrupted fingerprint, and
that the benchmark fails without printing a result when the library sources
are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SIM_E2E = [m["name"] for m in SPEC["end_to_end"] if m["name"].startswith("sim_")]
WORK_COUNTS = ["store.objects_scanned", "store.objects_fetched",
               "query.comparisons", "federation.goid_probes",
               "core.check_tasks", "sim.messages"]


def bench(workload, trace, *extra, seed=7, run=RUN, cwd=ROOT):
    """Runs one smoke run; returns (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    return done.returncode, done.stdout.strip().splitlines()


def summary(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


class MetricsArePrinted(unittest.TestCase):
    def check(self, trace, expected):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, lines = bench(workload, trace)
                self.assertEqual(code, 0, lines)
                result = summary(lines)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                printed = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in expected}
                self.assertEqual(printed, want)
                for name, unit in want.items():
                    self.assertTrue(any(
                        line.startswith(f"metric {name} = ") and
                        line.endswith(f" {unit}") for line in lines), name)

    def test_end_to_end(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer(self):
        self.check(1, SPEC["per_layer"])


def work_line(lines):
    """The `work` line every run prints: per-query work counts."""
    return next(line for line in lines if line.startswith("work "))


class Determinism(unittest.TestCase):
    def test_one_seed_repeats_exactly(self):
        for workload in WORKLOADS:
            for trace, names in ((0, SIM_E2E), (1, WORK_COUNTS)):
                with self.subTest(workload=workload, trace=trace):
                    outputs = [bench(workload, trace)[1] for _ in range(2)]
                    runs = [summary(lines) for lines in outputs]
                    for name in names:
                        self.assertEqual(runs[0]["metrics"][name],
                                         runs[1]["metrics"][name], name)
                    self.assertEqual(work_line(outputs[0]),
                                     work_line(outputs[1]))
                    self.assertEqual(runs[0]["attempted"],
                                     runs[1]["attempted"])
                    self.assertEqual(runs[0]["failed"], runs[1]["failed"])

    def test_fingerprint_mismatch_fails_the_run(self):
        code, lines = bench("paper_sweep", 0, "--corrupt-answer",
                            "fingerprint")
        self.assertEqual(code, 1)
        result = summary(lines)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("determinism_mismatches=1", next(
            line for line in lines if line.startswith("correctness ")))


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_answers_fail_the_run(self):
        for trace, what in ((0, "query"), (1, "replay")):
            with self.subTest(what=what):
                code, lines = bench("paper_sweep", trace,
                                    "--corrupt-answer", what)
                self.assertEqual(code, 1)
                result = summary(lines)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_no_sources_no_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines = bench("serve_repeat", 0, cwd=bare,
                                run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertEqual(lines, [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
