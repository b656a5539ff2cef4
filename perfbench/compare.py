#!/usr/bin/env python3
"""Compare two checkouts of LAIN on the benchmark, one row per workload.

    python3 perfbench/compare.py --parent DIR --change DIR [--seed-base 1]

Each side is a checkout holding perfbench/run.py; each builds into its
own .bench_build.  Every workload in BENCHMARK.json runs ten pairs, each
run lasting BENCHMARK.json's run_seconds.  Pair i runs both sides on seed
seed-base + i, the parent first on even pairs and the change first on
odd ones.  For every
end-to-end metric in BENCHMARK.json the verdict is:

  unresolved  the parent's own spread (interquartile range over median)
              exceeds the metric's bound, unless every change run beats
              every parent run;
  worse       the change's median is worse than the parent's by more
              than the bound;
  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  same        otherwise.

A workload's row takes its worst metric verdict (worse, unresolved,
better, same).  The simulated-output digest of each pair is compared
too: a change that only speeds the simulator up must leave it equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

VERDICT_ORDER = ["worse", "unresolved", "better", "same"]
PAIRS = 10


def run_side(checkout, workload, seed, seconds):
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"compare: {checkout}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    digest = None
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] == "sim.digest":
            digest = parts[1]
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "digest": digest}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / med_p if med_p else 0.0
    sign = 1.0 if better == "lower" else -1.0
    worse_rel = sign * (med_c - med_p) / med_p if med_p else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        v = "unresolved"
    elif worse_rel > bound:
        v = "worse"
    elif (wins >= 0.9 * len(parent) and sign * (med_c - med_p) < 0
          and abs(med_c - med_p) > q3 - q1):
        v = "better"
    else:
        v = "same"
    return {"verdict": v, "parent_median": med_p, "change_median": med_c,
            "change_pct": 100.0 * (med_c - med_p) / med_p if med_p else 0.0,
            "parent_spread": spread, "wins": wins, "pairs": len(parent)}


def report(bench, runs):
    metrics = bench["end_to_end"]
    print(f"{'workload':<16} {'verdict':<11} {'digest':<9} details")
    for workload, pairs in runs.items():
        rows = {}
        for m in metrics:
            parent = [p["parent"]["metrics"][m["name"]] for p in pairs]
            change = [p["change"]["metrics"][m["name"]] for p in pairs]
            rows[m["name"]] = dict(verdict(parent, change, m["better"],
                                           m["bound"]), bound=m["bound"])
        overall = min((r["verdict"] for r in rows.values()),
                      key=VERDICT_ORDER.index)
        same_digest = sum(1 for p in pairs
                          if p["parent"]["digest"] == p["change"]["digest"])
        failed = sum(p["change"]["failed"] for p in pairs)
        digest = f"{same_digest}/{len(pairs)}"
        note = f"change failed {failed} ops" if failed else ""
        print(f"{workload:<16} {overall:<11} {digest:<9} {note}")
        for name, r in rows.items():
            print(f"    {name:<16} {r['verdict']:<11} "
                  f"{r['parent_median']:.6g} -> {r['change_median']:.6g} "
                  f"({r['change_pct']:+.2f}%), wins {r['wins']}/{r['pairs']}, "
                  f"parent spread {100 * r['parent_spread']:.2f}% "
                  f"(bound {100 * r['bound']:.0f}%)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(parent, "BENCHMARK.json"), encoding="utf-8") as f:
        if json.load(f) != bench:
            print("compare: warning: BENCHMARK.json differs between sides",
                  file=sys.stderr)
    seconds = bench["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for i in range(PAIRS):
            seed = args.seed_base + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            pair = {"seed": seed}
            for side, checkout in order:
                pair[side] = run_side(checkout, workload, seed, seconds)
            runs[workload].append(pair)
            print(f"compare: {workload} pair {i + 1}/{PAIRS} done",
                  file=sys.stderr)
    report(bench, runs)


if __name__ == "__main__":
    main()
