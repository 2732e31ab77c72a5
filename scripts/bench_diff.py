#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and print per-metric deltas.

Every bench binary drops a BENCH_<name>.json in its working directory, so
perf trajectories across PRs are diffed with:

    scripts/bench_diff.py old/BENCH_robustness.json build/BENCH_robustness.json

Benchmarks are matched by name; the report shows old/new values of the
report metric (default real_time), the delta in percent, and the speedup
factor (old / new, > 1 is faster). Aggregate rows (mean/median/stddev)
are skipped.

Gating:
    --gate METRIC:PCT         gate any per-benchmark JSON field; repeatable

Re-blessing:
    --update-baseline         after printing the report, copy NEW over OLD
                              (the baseline path) and exit 0 regardless of
                              gate verdicts — the one-command way to bless
                              an intentional perf change. Gates are still
                              evaluated and printed so the bless is an
                              informed one.

Work-counter gating is what CI wants: the bench binaries emit
deterministic `cells_visited` / `offsets_advanced` counters on their
serial rows, so `--gate cells_visited:5` fails on real algorithmic
regressions without flapping on machine load the way wall time does.
A gated metric absent from both files (e.g. an old baseline predating
the counters) is reported and skipped, not failed.
"""

import argparse
import json
import shutil
import sys


def load_benchmarks(path, metric):
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        if name is None or metric not in bench:
            continue
        out[name] = (float(bench[metric]), bench.get("time_unit", "ns"))
    return out


def compare(old_path, new_path, metric, unit_matters, verbose):
    """Returns (worst regression pct, shared benchmark count)."""
    old = load_benchmarks(old_path, metric)
    new = load_benchmarks(new_path, metric)
    shared = [name for name in old if name in new]
    if not shared:
        return None, 0

    worst = 0.0
    mismatched_units = []
    if verbose:
        name_width = max(len(name) for name in shared)
        header = (f"{'benchmark':<{name_width}}  {'old':>12}  {'new':>12}  "
                  f"{'delta':>8}  {'speedup':>8}")
        print(f"metric: {metric}")
        print(header)
        print("-" * len(header))
    for name in shared:
        old_value, old_unit = old[name]
        new_value, new_unit = new[name]
        if unit_matters and old_unit != new_unit:
            # Comparing e.g. us against ms would report a bogus ~1000x
            # delta; flag instead of feeding garbage to the gate.
            mismatched_units.append(name)
            if verbose:
                print(f"{name:<{name_width}}  {old_value:>10.4g}{old_unit:<2}  "
                      f"{new_value:>10.4g}{new_unit:<2}  unit mismatch — skipped")
            continue
        if old_value:
            delta_pct = (new_value - old_value) / old_value * 100.0
        else:
            # A zero baseline is legitimate for work counters (a row whose
            # code path enters no counted kernel); any growth from zero is
            # an infinite regression, not a 0% one, or the gate would wave
            # through exactly what it exists to catch.
            delta_pct = float("inf") if new_value else 0.0
        speedup = old_value / new_value if new_value else float("inf")
        worst = max(worst, delta_pct)
        if verbose:
            suffix = old_unit if unit_matters else ""
            print(f"{name:<{name_width}}  {old_value:>10.4g}{suffix:<2}  "
                  f"{new_value:>10.4g}{suffix:<2}  {delta_pct:>+7.1f}%  {speedup:>7.2f}x")

    if verbose:
        only_old = sorted(set(old) - set(new))
        only_new = sorted(set(new) - set(old))
        if only_old:
            print(f"\nonly in {old_path}: " + ", ".join(only_old))
        if only_new:
            print(f"only in {new_path}: " + ", ".join(only_new))
        if mismatched_units:
            print(f"\nWARNING: {len(mismatched_units)} benchmark(s) changed time_unit "
                  "between the two files and were not compared", file=sys.stderr)
        print()
    return worst, len(shared)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="baseline BENCH_<name>.json")
    parser.add_argument("new", help="candidate BENCH_<name>.json")
    parser.add_argument("--metric", default="real_time",
                        help="benchmark field to report (default: real_time)")
    parser.add_argument("--gate", action="append", default=[], metavar="METRIC:PCT",
                        help="exit 1 if METRIC regresses by more than PCT percent; "
                             "repeatable (e.g. --gate cells_visited:5 --gate real_time:150)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy NEW over OLD after the report and exit 0 "
                             "(bless an intentional change)")
    args = parser.parse_args()

    worst, shared = compare(args.old, args.new, args.metric,
                            unit_matters=args.metric == "real_time", verbose=True)
    if shared == 0:
        print("no common benchmarks between the two files", file=sys.stderr)
        return 1

    gates = []
    for spec in args.gate:
        try:
            metric, pct = spec.rsplit(":", 1)
            gates.append((metric, float(pct)))
        except ValueError:
            print(f"bad --gate spec '{spec}' (want METRIC:PCT)", file=sys.stderr)
            return 2

    failed = False
    for metric, threshold in gates:
        if metric == args.metric:
            gate_worst, gate_shared = worst, shared
        else:
            gate_worst, gate_shared = compare(args.old, args.new, metric,
                                              unit_matters=metric == "real_time",
                                              verbose=True)
        if gate_shared == 0:
            print(f"gate {metric}: no common benchmarks carry it — skipped",
                  file=sys.stderr)
            continue
        verdict = "FAIL" if gate_worst > threshold else "ok"
        print(f"gate {metric}: worst {gate_worst:+.1f}% vs allowed +{threshold:g}% "
              f"over {gate_shared} benchmark(s) -> {verdict}")
        if gate_worst > threshold:
            failed = True
    if args.update_baseline:
        shutil.copyfile(args.new, args.old)
        print(f"baseline updated: {args.new} -> {args.old}")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
