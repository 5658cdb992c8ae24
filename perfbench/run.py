#!/usr/bin/env python3
"""The repository benchmark: builds the simulator and its benchmark binary
(meecc_perfbench) from source, then runs one workload.

    python3 perfbench/run.py --workload fig7_figure --seed 1 --seconds 35 \
        --trace 0

Workloads: fig7_figure, campaign_stream, enclave_rw (perfbench/NOTES.md).
The build goes to .bench_build/ and run outputs to .bench_work/, both at
the repository root. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result when
the build fails, for instance when the simulator sources are absent.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "meecc_perfbench")
WORKLOADS = ("fig7_figure", "campaign_stream", "enclave_rw")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "meecc_perfbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke size: a few items per round")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: meecc_perfbench timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
