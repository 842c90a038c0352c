#!/usr/bin/env python3
"""Build and run the medchain benchmark; print its result line.

    python3 perfbench/run.py --workload ingest_contract|ingest_ledger|query_mix \
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt KIND]

Run from the repository root. The first run configures and builds the
library from src/ and the medbench program into .bench_build/perfbench
(CARGO_TARGET_DIR, when set, names the build root instead); later runs
rebuild only what changed. Build output goes to stderr.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json; with --trace 1 they are its per_layer metrics, a layer
the workload does not load reading 0. The traced run also writes its
spans to <build>/traces/<workload>-<seed>.jsonl. The exit code is
medbench's: non-zero when any output check failed, and no result line at
all when the benchmark cannot be built.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_checked(cmd, timeout):
    """Run `cmd` with stdout sent to stderr; stop it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no medchain sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_checked(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_checked(["cmake", "--build", build_dir, "-j", jobs],
                   BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(build_dir, "medbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)
    end_to_end, per_layer = declared_metrics()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-%d.jsonl" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if not lines:
        fail("medbench printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("medbench's last line is not JSON: " + lines[-1][:200])

    # Conform the metrics to the declared list: nothing undeclared, and in
    # a traced run every per-layer metric present (0 when this workload
    # does not load that layer).
    declared = per_layer if args.trace else end_to_end
    names = {m["name"] for m in declared}
    extra = sorted(set(result["metrics"]) - names)
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None and not args.trace:
            fail("end-to-end metric not measured: " + m["name"])
        metrics[m["name"]] = got or {"value": 0, "unit": m["unit"]}
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s" %
                 (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
