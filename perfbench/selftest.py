#!/usr/bin/env python3
"""Self-test of the medchain benchmark at tiny size.

    python3 perfbench/selftest.py

Runs from the repository root, through perfbench/run.py (which builds on
first use). Checks that:
  * every workload passes all its output checks, untraced and traced;
  * the work counters (every count/bytes metric of the traced run) repeat
    exactly across two traced runs of one seed;
  * every fault the benchmark can inject fails the run: a non-zero exit,
    "correct": false and at least one failed operation.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

WORKLOADS = ("ingest_contract", "ingest_ledger", "query_mix")
# Injected faults, each with the workload it applies to and whether the
# traced run is also exercised (its re-driven pipeline has its own checks).
FAULTS = (
    ("ingest_contract", "state_root", (0, 1)),
    ("ingest_ledger", "state_root", (0,)),
    ("ingest_contract", "skip_block", (0,)),
    ("ingest_contract", "missing_receipt", (0, 1)),
    ("ingest_ledger", "state_drift", (0,)),
    ("query_mix", "unparseable", (0, 1)),
    ("query_mix", "revoke", (0,)),
    ("query_mix", "pending_request", (0,)),
    ("query_mix", "answer", (0,)),
)


def run(workload, trace, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--tiny"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    for workload in WORKLOADS:
        code, result, err = run(workload, 0)
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               "%s untraced passes its checks" % workload)
        first = run(workload, 1)
        second = run(workload, 1)
        for code, result, err in (first, second):
            expect(code == 0 and result["correct"],
                   "%s traced run passes its checks" % workload)
        counters = {name: m["value"] for name, m in first[1]["metrics"].items()
                    if m["unit"] in ("count", "bytes")}
        again = {name: second[1]["metrics"][name]["value"] for name in counters}
        diff = sorted(n for n in counters if counters[n] != again[n])
        expect(not diff, "%s counters repeat exactly across two runs%s" %
               (workload, (": " + ", ".join(diff)) if diff else ""))

    for workload, fault, traces in FAULTS:
        for trace in traces:
            code, result, err = run(workload, trace, fault)
            expect(code not in (0, 2) and result is not None and
                   not result["correct"] and result["failed"] > 0,
                   "%s --corrupt %s (trace %d) fails the run" %
                   (workload, fault, trace))


if __name__ == "__main__":
    main()
