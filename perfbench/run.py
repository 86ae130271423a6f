#!/usr/bin/env python3
"""Build and run the srsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark binary srbench under .bench_build/ (perfbench/CMakeLists.txt
compiles ../src into it); later runs only re-check the build. The stdout
of srbench is passed through; its last line is the JSON result. The exit
code is that of srbench: nonzero when a correctness or durability check
failed. Without the srsim sources next to this directory the build fails
and no result is printed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig_sweep", "online_churn", "daemon_durable")
# Whole-run limit for srbench; a run takes about 30 s.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build srbench; return its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            sys.stderr.write("run.py: build step failed: %s\n"
                             % " ".join(cmd))
            return None
    return os.path.join(build_dir, "srbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 2

    # The workload fixes its own thread budget and solver; keep the
    # process-wide knobs out of the run.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SRSIM_THREADS", "SRSIM_SOLVER")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "run-" + args.workload)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s did not finish within %d s\n"
                         % (args.workload, RUN_TIMEOUT_S))
        return 3
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
