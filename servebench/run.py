#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library and the driver (Release) under .bench_build/servebench; later
calls rebuild only what changed. Build output goes to stderr, so the
driver's last stdout line -- one JSON object -- stays the last line.
--trace 1 also writes the traced session's spans to
.bench_build/servebench/trace/<workload>-seed<n>.jsonl.

--selftest runs the generator self-tests and checks that a run whose
expectation was deliberately flipped is counted as failed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ("hot_repeat", "cold_ask", "frontier_session")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        sys.exit("servebench: no library sources next to the benchmark (expected "
                 "CMakeLists.txt and src/ in the checkout root)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"servebench: build step failed: {' '.join(step)}")


def run(argv):
    return subprocess.run(argv, timeout=RUN_TIMEOUT_S, check=False)


def selftest():
    failures = 0
    if run([os.path.join(BUILD, "servebench_selftest")]).returncode != 0:
        failures += 1
    # Request 3 of the stream gets a flipped expectation: the driver must
    # report exactly one failed request and exit non-zero.
    flipped = subprocess.run(
        [os.path.join(BUILD, "servebench_driver"), "--workload", "cold_ask", "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--flip", "3"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    last = flipped.stdout.strip().splitlines()[-1] if flipped.stdout.strip() else ""
    if flipped.returncode == 0 or '"failed": 1,' not in last:
        print("FAIL: a flipped expectation was not counted as exactly one failure")
        failures += 1
    else:
        print("PASS: a flipped expectation counts as one failed request")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None or
                              args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    build()
    if args.selftest:
        return selftest()
    command = [os.path.join(BUILD, "servebench_driver"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    return run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
