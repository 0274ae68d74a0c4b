#!/usr/bin/env python3
"""Record one trajectory point of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/record.py --label <name> --out perfbench/trajectory/<name>.json

For every workload in BENCHMARK.json it makes ten untraced runs, seeds 1..10,
and one traced run (seed 1), all at the benchmark's run_seconds. It writes
every run's JSON summary, a summary of the same form holding the per-metric
medians (attempted and failed summed over the runs), and the run-to-run spread
(distance between the first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them), and prints a table.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: run failed")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "label": args.label,
        "host": f"{platform.machine()}, {os.cpu_count()} cores, "
                "Release build, one host thread",
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"], 0)
                for seed in record["seeds"]]
        median, spread = {}, {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q = statistics.quantiles(values, n=4)
            median[name] = {"value": statistics.median(values),
                            "unit": metric["unit"]}
            spread[name] = (q[2] - q[0]) / statistics.median(values)
            print(f"{workload:13s} {name:22s} median {median[name]['value']:14.4f}"
                  f" {metric['unit']:7s} spread {spread[name]:.4f}"
                  f" (bound {bounds[name]})", flush=True)
        record["workloads"][workload] = {
            # Per-metric medians; attempted and failed summed over the runs.
            "summary": {"correct": all(r["correct"] for r in runs),
                        "attempted": sum(r["attempted"] for r in runs),
                        "failed": sum(r["failed"] for r in runs),
                        "metrics": median},
            "spread": spread,
            "runs": runs,
            "traced": run(workload, 1, spec["run_seconds"], 1),
        }
    with open(args.out, "w") as out:
        json.dump(record, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
