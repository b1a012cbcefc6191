#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

Run from the root of the repository:

    python3 perfbench/test_smoke.py

For every workload and both modes it checks that the last output line
is the result record, that the record names every metric of
BENCHMARK.json with its unit, and that the committed digests hold. It
also checks that a wrong committed digest fails the run, and that the
benchmark's own VL2 quantile table matches the library's.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "pdq_bench.exe")
OUT = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def setUpModule():
    sys.path.insert(0, HERE)
    import run as runner
    if runner.build() != 0:
        raise RuntimeError("perfbench build failed")


def run(workload, trace, *extra):
    """Run one tiny invocation through run.py; return (exit code, record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1]) if lines else None
    return proc.returncode, record, proc.stderr


class Smoke(unittest.TestCase):
    def check_record(self, record, metrics):
        self.assertEqual(set(record), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(record["correct"])
        self.assertEqual(record["failed"], 0)
        self.assertGreaterEqual(record["attempted"], 1)
        self.assertEqual(set(record["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = record["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, ["pkt_trace", "agg_checked_sweep", "flow_fattree"])
        for name in names:
            for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    code, record, err = run(name, trace)
                    self.assertEqual(code, 0, err)
                    self.check_record(record, metrics)
                    if trace == 0:
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(record["metrics"][m["name"]]["value"], 0, m["name"])

    def test_wrong_digest_fails(self):
        os.makedirs(OUT, exist_ok=True)
        bad = os.path.join(OUT, "wrong_digests.json")
        with open(bad, "w") as f:
            json.dump({"agg_checked_sweep": "0" * 32}, f)
        proc = subprocess.run([EXE, "--workload", "agg_checked_sweep", "--smoke",
                               "--seconds", "1", "--digests", bad, "--out", OUT],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 1)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(record["correct"])
        self.assertGreater(record["failed"], 0)

    def test_selftest(self):
        proc = subprocess.run([EXE, "--selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
