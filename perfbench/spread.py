#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each named workload
(untraced), then prints, per metric, the median of the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound. A spread at or above a third of its bound is
flagged (`setup_s` is reported, not flagged: only its median is bound).

    python3 perfbench/spread.py --workloads rc-serve --seeds 1 2 3 4 5

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, env):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, env=env)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        runs = [run_once(spec["command"], w, s, args.seconds, env) for s in args.seeds]
        print(f"== {w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
                worst = max(worst, spread / bound)
            print(f"  {name:<14} median {med:>14.6f}  spread {spread:6.3f}  bound {bound:.2f}{flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.6g}" for v in values))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
