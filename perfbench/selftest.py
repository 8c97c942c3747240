#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 perfbench/selftest.py [--workloads recognize,insert_large,batch_read]
        [--seeds 1,1009]

For every workload and seed, runs perfbench/run.py --trace 1 twice and
requires the two "work" records to be identical: verdict counts, tuple
counts, answer rows, expr_nodes and the obs work counters of the fixed-work
passes. It also requires both runs to be correct. Seed 1 is a tuning seed;
seed 1009 is the hold-out seed that later performance claims re-check on
(see perfbench/README.md). Exits 0 when every pair matches, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = "recognize,insert_large,batch_read"


def traced_run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    work, result = None, None
    for line in proc.stdout.splitlines():
        if line.startswith('{"work"'):
            work = json.loads(line)["work"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, work


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=WORKLOADS)
    parser.add_argument("--seeds", default="1,1009")
    args = parser.parse_args()
    failures = 0
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            ok_a, work_a = traced_run(workload, seed)
            ok_b, work_b = traced_run(workload, seed)
            same = work_a is not None and work_a == work_b
            status = "ok" if ok_a and ok_b and same else "FAIL"
            failures += status != "ok"
            print("%-4s %-12s seed %-5d correct=%s/%s identical=%s" %
                  (status, workload, seed, ok_a, ok_b, same))
            if work_a is not None and work_b is not None and not same:
                for key in sorted(set(work_a) | set(work_b)):
                    if work_a.get(key) != work_b.get(key):
                        print("     %s: %s != %s" % (key, work_a.get(key),
                                                     work_b.get(key)))
            sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
