#!/usr/bin/env python3
"""Check that the benchmark's deterministic counters repeat exactly.

    python3 perfbench/selftest.py            # check against fingerprints.json
    python3 perfbench/selftest.py --record   # rewrite fingerprints.json

Run from the root of a checkout. For every workload it runs the benchmark
twice on the development seed and once on the held-out seed (untraced,
shortest window), and requires that the two development runs print the
same fingerprint and that both seeds match the counters recorded in
fingerprints.json. Each run must also pass its own correctness checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("fig_sweep", "online_churn", "daemon_durable")


def fingerprint(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        sys.stdout.write(res.stdout)
        raise SystemExit("selftest: %s seed %d failed (exit %d)"
                         % (workload, seed, res.returncode))
    for line in lines:
        if line.startswith("# fingerprint "):
            return json.loads(line[len("# fingerprint "):])
    raise SystemExit("selftest: %s printed no fingerprint" % workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true",
                    help="record the counters instead of checking them")
    args = ap.parse_args()

    with open(FINGERPRINTS) as f:
        doc = json.load(f)
    seeds = {"dev": doc["dev_seed"], "held_out": doc["held_out_seed"]}
    ok = True
    for w in WORKLOADS:
        first = fingerprint(w, seeds["dev"])
        again = fingerprint(w, seeds["dev"])
        held = fingerprint(w, seeds["held_out"])
        if first != again:
            print("%s: two runs on seed %d disagree:\n  %s\n  %s"
                  % (w, seeds["dev"], first, again))
            ok = False
        got = {"dev": first, "held_out": held}
        if args.record:
            doc["counters"][w] = got
            continue
        for which, counters in got.items():
            want = doc["counters"].get(w, {}).get(which)
            if counters != want:
                print("%s (%s seed %d): counters %s, recorded %s"
                      % (w, which, seeds[which], counters, want))
                ok = False
        print("%s: %s" % (w, "ok" if ok else "MISMATCH"))
    if args.record:
        with open(FINGERPRINTS, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("recorded", FINGERPRINTS)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
