#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: run the benchmark once per seed, then report each metric's
interquartile range (statistics.quantiles, n=4) as a share of its median,
next to the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload churn_query --seeds 1-10

Run from the repository root. Exits non-zero when a spread other than
setup_s's reaches its bound, or when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)

    ok = True
    print(f"\n{args.workload}: {'metric':<16} {'median':>14} {'spread':>8} "
          f"{'bound/3':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[name] / 3 else (
            "  over bound/3" if spread < bounds[name] else "  OVER BOUND")
        if name != "setup_s" and spread >= bounds[name]:
            ok = False
        print(f"{args.workload}: {name:<16} {med:>14.6g} {spread:>8.4f} "
              f"{bounds[name] / 3:>8.4f} {bounds[name]:>6.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
