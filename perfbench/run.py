#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pkt_trace --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every run succeeded and every output matched its digest.
See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pkt_trace", "agg_checked_sweep", "flow_fattree")
EXE = os.path.join("_build", "default", "perfbench", "pdq_bench.exe")


def build():
    """Build the benchmark binary with dune; dune output goes to stderr."""
    cmd = ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
           "./perfbench/pdq_bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not os.path.isfile(os.path.join(ROOT, EXE)):
        print("perfbench: build failed", file=sys.stderr)
        return proc.returncode or 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pools, for the smoke test")
    ap.add_argument("--refresh-digests", action="store_true",
                    help="recompute the workload's committed digest")
    args = ap.parse_args()

    rc = build()
    if rc != 0:
        return rc
    cmd = [os.path.join(".", EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--digests", os.path.join("perfbench", "digests.json"),
           "--out", os.path.join("perfbench", "out")]
    if args.smoke:
        cmd.append("--smoke")
    if args.refresh_digests:
        cmd.append("--refresh-digests")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
