#!/usr/bin/env python3
"""Compares two checkouts on one perfbench workload in alternating pairs.

    scripts/perfbench_pairs.py BASE_DIR CHANGE_DIR --workload W
                               [--pairs 10] [--seconds 30] [--seed N]

Each pair runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` once in each checkout, one after the other; the side that runs
first alternates from pair to pair, so drift in host speed lands on both
sides alike. Each checkout builds into its own CARGO_TARGET_DIR
(<checkout>/.bench_build), so the two builds never share a tree. Every
run is listed as it finishes.

For each end-to-end metric of BENCHMARK.json (read from this script's
repository, never written) the report gives each side's median and
quartiles, the change's median over the base's, the pairs the change won,
the base's interquartile range, whether a claimed gain would hold (the
change better in at least nine tenths of the pairs and the medians apart
by more than the base's IQR) and whether the metric's regression bound
holds (the change's median no worse than the base's by more than the
bound). It also gives each side's failed and attempted calls.

Exits non-zero when a run fails to produce a result.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, args):
    """Runs one checkout's perfbench once; returns its result object."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(os.path.abspath(checkout),
                                           ".bench_build")
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: run.py exited %d without a result" %
                           (checkout, proc.returncode))
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return "%.4g" % x


def main():
    parser = argparse.ArgumentParser(
        description="Alternating perfbench pairs of two checkouts.")
    parser.add_argument("base", help="checkout of the base (parent) commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}

    print("| pair | side | first | correct | failed/attempted | %s |" %
          " | ".join(m["name"] for m in metrics))
    print("|---|---|---|---|---|%s" % ("---|" * len(metrics)))
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args)
            runs[side].append(result)
            values = [fmt(result["metrics"][m["name"]]["value"])
                      for m in metrics]
            print("| %d | %s | %s | %s | %d/%d | %s |" % (
                pair + 1, side, "yes" if side == order[0] else "",
                result["correct"], result["failed"], result["attempted"],
                " | ".join(values)), flush=True)

    need = math.ceil(0.9 * args.pairs)
    print()
    print("workload %s, seed %d, %d pairs of %d s; claim rule: at least "
          "%d/%d pairs won and medians apart by more than the base IQR" %
          (args.workload, args.seed, args.pairs, args.seconds, need,
           args.pairs))
    print()
    print("| metric | base median [q1, q3] | change median [q1, q3] | "
          "change/base | pairs won | base IQR | claim holds | bound "
          "| bound holds |")
    print("|---|---|---|---|---|---|---|---|---|")
    for m in metrics:
        name = m["name"]
        higher = m["better"] == "higher"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        won = sum(1 for b, c in zip(base, change)
                  if (c > b if higher else c < b))
        iqr = b3 - b1
        better = c2 - b2 if higher else b2 - c2
        claim = won >= need and better > iqr
        worse = (b2 - c2) / b2 if higher else (c2 - b2) / b2
        bound_holds = worse <= m["bound"]
        print("| %s | %s [%s, %s] | %s [%s, %s] | %.3f | %d/%d | %s (%.1f%%) "
              "| %s | %.0f%% | %s |" % (
                  name, fmt(b2), fmt(b1), fmt(b3), fmt(c2), fmt(c1), fmt(c3),
                  c2 / b2, won, args.pairs, fmt(iqr), 100.0 * iqr / b2,
                  "yes" if claim else "no", 100.0 * m["bound"],
                  "yes" if bound_holds else "no"))
    print()
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print("%s: %d of %d calls failed" % (side, failed, attempted))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        print("perfbench_pairs: %s" % e, file=sys.stderr)
        sys.exit(1)
