#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

Run from the root of a checkout:

    python3 rodbench/run.py --workload place_scale --seed 1 --seconds 10 \
        --trace 0

The first run configures and builds the library, rod_worker and the
rodbench program into .bench_build/ (RelWithDebInfo); later runs only
re-check the build. rodbench's last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; this script checks that
its metric names and units are exactly those BENCHMARK.json lists for the
mode (end_to_end untraced, per_layer traced) and prints it. It exits
non-zero, printing no result, when the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("place_scale", "sim_steady", "sim_burst_failover",
             "cluster_failover")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configures (once) and builds rodbench; returns the build dir."""
    src = os.path.join(root, "rodbench")
    out = os.path.join(root, BUILD_DIR)
    steps = []
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", src, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "rodbench", "rod_worker"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                           check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.SubprocessError) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e))
    return out


def check_result(line, spec, trace):
    """Parses rodbench's result line and checks it against the spec."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON: %r" % line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(got) ^ set(names)))
    for m in wanted:
        if got[m["name"]].get("unit") != m["unit"]:
            fail("unit of %s is %r, BENCHMARK.json says %r"
                 % (m["name"], got[m["name"]].get("unit"), m["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in %s: %s" % (root, e))

    out = build(root)
    work_dir = os.path.join(out, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(out, "rodbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--worker", os.path.join(out, "rod_worker"),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail("rodbench did not complete: %s" % e)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail("rodbench exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    check_result(lines[-1], spec, args.trace == 1)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
