#!/usr/bin/env python3
"""Compare two checkouts on the end-to-end benchmark.

    python3 bench_e2e/compare_e2e.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--seconds S] [--workloads w1,w2] [--first-seed N]
    python3 bench_e2e/compare_e2e.py --reference OUT.json DIR [--runs 3]

Each pair runs bench_e2e/run.py of both checkouts on one workload with the
same seed (seeds first-seed, first-seed+1, ...), alternating which side runs
first. Both checkouts must hold the same benchmark; bounds come from this
checkout's BENCHMARK.json. One row per workload x end-to-end metric shows
each side's median and quartiles, the change's wins over the pairs (ties
count for neither) and a verdict:

  unresolved  the parent's spread (IQR / median) exceeds the bound and not
              every change run beats every parent run
  regression  the change's median is worse than the parent's by more than
              the bound
  gain        at least 10 pairs ran, the change won at least 9/10 of
              them, and the medians differ by more than the parent's
              interquartile range
  unchanged   otherwise

Exit status 1 when any run fails or any row is a regression.

--reference runs DIR's benchmark --runs times per workload at seed 1 and
writes each metric's median and quartiles to OUT.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS_FOR_GAIN = 10


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(checkout, workload, seed, seconds):
    """One untraced run; returns {metric: value}. Exits on a failed run."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench_e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not result or not result["correct"] or result["failed"]:
        sys.exit("%s: %s seed %d failed (exit %d)\n%s" %
                 (checkout, workload, seed, proc.returncode,
                  proc.stderr[-3000:]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    all_better = (min(change) > max(parent) if sign > 0 else
                  max(change) < min(parent))
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    worse = -sign * (c_med - p_med) / p_med if p_med else 0.0
    if spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    elif (len(parent) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(parent)
          and sign * (c_med - p_med) > p_q3 - p_q1):
        label = "gain"
    else:
        label = "unchanged"
    return label, wins


def fmt(values):
    q1, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (statistics.median(values), q1, q3)


def compare(opts, bench):
    metrics = bench["end_to_end"]
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    print("%-16s %-12s %-8s %-30s %-30s %8s %6s %s" %
          ("workload", "metric", "unit", "parent median [q1, q3]",
           "change median [q1, q3]", "delta", "wins", "verdict"))
    regressions = 0
    for workload in workloads:
        parent, change = [], []
        for k in range(opts.pairs):
            seed = opts.first_seed + k
            sides = [(opts.parent, parent), (opts.change, change)]
            for checkout, results in (sides if k % 2 == 0 else sides[::-1]):
                results.append(run(checkout, workload, seed, opts.seconds))
        for m in metrics:
            p = [r[m["name"]] for r in parent]
            c = [r[m["name"]] for r in change]
            label, wins = verdict(m, p, c)
            regressions += label == "regression"
            p_med = statistics.median(p)
            delta = (statistics.median(c) - p_med) / p_med if p_med else 0.0
            print("%-16s %-12s %-8s %-30s %-30s %+7.1f%% %3d/%-2d %s" %
                  (workload, m["name"], m["unit"], fmt(p), fmt(c),
                   100 * delta, wins, len(p), label), flush=True)
    return 1 if regressions else 0


def reference(opts, bench):
    out = {"seed": 1, "runs": opts.runs, "seconds": opts.seconds,
           "workloads": {}}
    for w in bench["workloads"]:
        runs = [run(opts.dir, w["name"], 1, opts.seconds)
                for _ in range(opts.runs)]
        rows = {}
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            q1, q3 = quartiles(values)
            med = statistics.median(values)
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                               "q3": q3,
                               "iqr_share": (q3 - q1) / med if med else 0.0}
            print("%-16s %-12s %12.5g %s  iqr %.1f%%" %
                  (w["name"], m["name"], med, m["unit"],
                   100 * rows[m["name"]]["iqr_share"]), flush=True)
        out["workloads"][w["name"]] = rows
    with open(opts.reference, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", type=lambda s: s.split(","))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--reference", metavar="OUT")
    opts = parser.parse_args()
    bench = load_benchmark()
    if opts.seconds is None:
        opts.seconds = bench["run_seconds"]
    if opts.reference:
        if len(opts.dirs) != 1:
            parser.error("--reference takes one DIR")
        opts.dir = opts.dirs[0]
        return reference(opts, bench)
    if len(opts.dirs) != 2:
        parser.error("expected PARENT_DIR CHANGE_DIR")
    opts.parent, opts.change = opts.dirs
    return compare(opts, bench)


if __name__ == "__main__":
    sys.exit(main())
