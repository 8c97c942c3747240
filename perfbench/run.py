#!/usr/bin/env python3
"""Build the library and the benchmark program, then run one workload.

    python3 perfbench/run.py --workload recognize|insert_large|batch_read \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the repository root: an optimized build of src/ with
IRD_OBS at its default (ON) plus perfbench/perfbench.cc. Build output goes
to stderr; the benchmark program's last stdout line is the JSON result. With --trace 1
the span trace is written to <build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recognize", "insert_large", "batch_read")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench-cmake")


def configured(out_dir):
    """True when out_dir holds a usable configuration of this source tree."""
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            text = cache.read()
    except OSError:
        return False
    home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n"
    generated = any(os.path.isfile(os.path.join(out_dir, f))
                    for f in ("Makefile", "build.ninja"))
    return home in text and generated


def build(out_dir):
    """Configures (once) and builds the benchmark program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no library sources at src/; run from a full checkout",
              file=sys.stderr)
        return None
    if not configured(out_dir):
        stale = os.path.join(out_dir, "CMakeCache.txt")
        if os.path.isfile(stale):
            os.remove(stale)
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(os.cpu_count() or 1, 8))
    cmd = ["cmake", "--build", out_dir, "--target", "ird_perfbench", "-j",
           jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out_dir, "ird_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
