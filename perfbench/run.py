#!/usr/bin/env python3
"""Served-path benchmark driver.

Builds the benchmark (and the repository libraries it links) from source
into the build directory, then runs one workload:

    python3 perfbench/run.py --workload fullbank_serve --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a checkout. The build directory is
$CARGO_TARGET_DIR (default .bench_build) under that root; traced runs
write their spans there too. The benchmark's last stdout line is its
JSON result; build output goes to stderr. `--self-test` builds and runs
the helper tests instead of a workload. `--workload all` runs every
workload untraced and traced and prints each one's metrics by name and
unit, with attempted and failed frames.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("fullbank_serve", "fleet_wire", "dirty_retrain")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out, "-j", jobs, "--target", "served_bench",
             "perfbench_selftest"],
        ]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    # Accepted for the benchmark interface; the replay length is fixed per
    # workload, so the run is not boxed by time.
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    def command(workload, trace):
        return [
            os.path.join(out, "served_bench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--trace", str(trace),
            "--trace-dir", os.path.join(out, "traces"),
        ]

    if args.workload != "all":
        sys.stdout.flush()
        return subprocess.run(command(args.workload, args.trace)).returncode
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(command(workload, trace), stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if done.returncode != 0 or result is None:
                status = 1
            print(f"== {workload} seed {args.seed} trace {trace}: exit {done.returncode}")
            if result is None:
                print("   no result")
                continue
            print(f"   correct {str(result['correct']).lower()}, attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:50s} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
