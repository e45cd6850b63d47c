#!/usr/bin/env python3
"""Determinism and seed-plumbing check for the perfbench binary.

    python3 fingerprint_check.py PATH/TO/perfbench

For every workload: two runs with the same seed must print the identical
"fingerprint" line (simulated counts only, so host speed cannot move it)
and verify every op; a run with another seed must print a different one.
Seed 97 was not used while the workloads were sized, so this also runs
each workload's correctness gates on held-out inputs.
"""

import json
import subprocess
import sys

WORKLOADS = ("snapshot_torus", "topk_flows", "xfsm_policer")


def run(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(l for l in lines if l.startswith("fingerprint "))
    return result, fingerprint


def main():
    binary = sys.argv[1]
    failures = []
    for w in WORKLOADS:
        r1, f1 = run(binary, w, 97)
        r2, f2 = run(binary, w, 97)
        r3, f3 = run(binary, w, 98)
        for r in (r1, r2, r3):
            if not r["correct"] or r["failed"] != 0:
                failures.append(f"{w}: a run did not verify: {r}")
        if f1 != f2:
            failures.append(f"{w}: same seed, different fingerprints:\n  {f1}\n  {f2}")
        if f1 == f3:
            failures.append(f"{w}: seeds 97 and 98 gave the same fingerprint {f1}")
        print(f"{w}: {f1}")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
