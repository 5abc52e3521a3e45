#!/usr/bin/env python3
"""Self-test for the sweep benchmark. Run from the repository root:

    python3 sweepbench/selftest.py

Runs every workload in BENCHMARK.json at a tiny size, untraced and traced,
and checks that each result line is well formed, correct, and carries
exactly the metrics BENCHMARK.json names, each with its declared unit. Then
runs every workload with --corrupt-row and checks that the output check
catches the damaged row. Exits non-zero if any check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "sweepbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d: %s" %
                             (workload, trace, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (workload, trace)
            before = len(failures)
            try:
                result = run(workload, trace)
            except (AssertionError, ValueError, subprocess.SubprocessError) as e:
                failures.append("%s: %s" % (label, e))
                continue
            if set(result) != RESULT_KEYS:
                failures.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                failures.append("%s: not correct (%d of %d failed)" %
                                (label, result["failed"], result["attempted"]))
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                extra = sorted(set(got) - set(declared[trace]))
                units = sorted(n for n in got if n in declared[trace]
                               and got[n] != declared[trace][n])
                failures.append("%s: missing %s, extra %s, wrong units %s" %
                                (label, missing, extra, units))
            print("%s %s" % ("ok  " if len(failures) == before else "FAIL", label),
                  flush=True)
        try:
            result = run(workload, 0, "--corrupt-row")
            if result["correct"] or result["failed"] < 1:
                failures.append("%s: a corrupted row went unnoticed" % workload)
            else:
                print("ok   %s --corrupt-row is caught" % workload, flush=True)
        except (AssertionError, ValueError, subprocess.SubprocessError) as e:
            failures.append("%s --corrupt-row: %s" % (workload, e))
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
