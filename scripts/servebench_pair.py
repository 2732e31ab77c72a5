#!/usr/bin/env python3
"""Paired serving-benchmark runs: a base revision against the working tree.

    python3 scripts/servebench_pair.py [--base REV] [--pairs N] [--seconds S]
                                       [--seeds 1 7919] [--workloads ...]

Exports REV (default HEAD, so uncommitted changes are what is measured;
pass HEAD~1 to measure the last commit) with `git archive` into
.bench_build/pair/base, builds servebench in it and in the working tree,
then alternates servebench/run.py runs: for every pair, seed and
workload, one base run and one working-tree run, the side that goes
first swapping from pair to pair. Prints, per workload and seed, the
median of every end-to-end metric on each side, the base side's
interquartile range, and on how many pairs the working tree was better
(direction from BENCHMARK.json). Exits 1 if any run fails, reports
failed requests or an incorrect verdict.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIR_DIR = os.path.join(ROOT, ".bench_build", "pair")
BASE_DIR = os.path.join(PAIR_DIR, "base")
WORKLOADS = ("hot_repeat", "cold_ask", "frontier_session")


def export_base(rev):
    """Exports `rev` to BASE_DIR unless that revision is already there."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    stamp = os.path.join(PAIR_DIR, "base.rev")
    if os.path.isfile(stamp) and os.path.isdir(BASE_DIR):
        with open(stamp) as existing:
            if existing.read().strip() == sha:
                return sha
    shutil.rmtree(BASE_DIR, ignore_errors=True)
    os.makedirs(BASE_DIR)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", BASE_DIR], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"servebench_pair: git archive {rev} failed")
    with open(stamp, "w") as out:
        out.write(sha + "\n")
    return sha


def run_once(checkout, workload, seed, seconds):
    """One servebench run; returns its JSON summary or None on failure."""
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, "servebench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        better = {m["name"]: m["better"] for m in json.load(spec)["end_to_end"]}
    sha = export_base(args.base)
    sides = {"base": BASE_DIR, "change": ROOT}
    # A short first run per side builds it (servebench/run.py builds on demand).
    for name, checkout in sides.items():
        print(f"building {name} ...", file=sys.stderr, flush=True)
        if run_once(checkout, args.workloads[0], args.seeds[0], 0.2) is None:
            sys.exit(f"servebench_pair: building or running the {name} side failed")

    runs = {}  # (workload, seed, side) -> list of metric dicts, one per pair
    bad = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for seed in args.seeds:
            for workload in args.workloads:
                for side in order:
                    result = run_once(sides[side], workload, seed, args.seconds)
                    label = f"pair {pair} {workload} seed {seed} {side}"
                    if result is None or not result.get("correct") or result.get("failed"):
                        bad.append(label)
                        print(f"FAILED: {label}: {result}", file=sys.stderr)
                        continue
                    metrics = {k: v["value"] for k, v in result["metrics"].items()}
                    runs.setdefault((workload, seed, side), []).append(metrics)
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    print(f"base {args.base} ({sha[:12]}) vs working tree, {args.pairs} pairs, "
          f"{args.seconds:g} s runs")
    for workload in args.workloads:
        for seed in args.seeds:
            base = runs.get((workload, seed, "base"), [])
            change = runs.get((workload, seed, "change"), [])
            pairs = min(len(base), len(change))
            if pairs == 0:
                continue
            print(f"\n{workload} seed {seed} ({pairs} pairs)")
            print(f"  {'metric':<20} {'base':>12} {'change':>12} {'delta':>8} "
                  f"{'base IQR':>10} {'wins':>6}")
            for metric, direction in better.items():
                if metric not in base[0]:
                    continue
                b = [run[metric] for run in base[:pairs]]
                c = [run[metric] for run in change[:pairs]]
                mb, mc = statistics.median(b), statistics.median(c)
                q1, q3 = quartiles(b)
                wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(b, c))
                delta = (mc - mb) / mb * 100 if mb else 0.0
                print(f"  {metric:<20} {mb:>12.4g} {mc:>12.4g} {delta:>+7.1f}% "
                      f"{q3 - q1:>10.4g} {wins:>3}/{pairs}")
    if bad:
        print(f"\n{len(bad)} run(s) failed or reported failed requests", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
