#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--workloads recognize,insert_large,batch_read]
        [--seeds 1-10] [--seconds N] [--out FILE]

Runs perfbench/run.py once per (workload, seed) with --trace 0, then prints,
per workload and metric, the median, the quartiles and the interquartile
range as a share of the median (statistics.quantiles(values, n=4)), next to
the metric's bound from BENCHMARK.json. A spread above the bound is flagged
with "!"; above a third of the bound with "~". --out saves every run's
result as JSON lines. Runs are sequential so that they do not disturb each
other's timings.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    out = open(args.out, "a") if args.out else None
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result}) + "\n")
                out.flush()
            if not result["correct"] or result["failed"]:
                raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s (%d seeds)" % (workload, len(seeds)))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = "!" if spread > bound else ("~" if spread > bound / 3 else " ")
            if name != "setup_s":
                worst = max(worst, spread / bound if bound else float("inf"))
            print("%s %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f"
                  "  bound %.2f" % (flag, name, med, q1, q3, spread, bound))
        sys.stdout.flush()
    print("worst spread / bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
