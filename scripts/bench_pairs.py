#!/usr/bin/env python3
"""Compares two builds of a google-benchmark binary in pinned, alternating
pairs.

    scripts/bench_pairs.py BASE_BINARY CHANGE_BINARY [--filter REGEX]
                           [--pairs 10] [--cpu 2] [--min-time 1]

Each pair runs both binaries once, one after the other, pinned to one core
with `taskset -c CPU`; the side that runs first alternates from pair to
pair, so drift in host speed lands on both sides alike. Every run passes
`--benchmark_filter=REGEX --benchmark_min_time=MIN_TIME
--benchmark_format=json`.

For each benchmark the report gives each side's median and quartiles, the
change's median over the base's, and the pairs the change won. A benchmark
that reports items_per_second is judged by it (higher is better), any other
by real time (lower is better). Counters whose names start with `allocs_per`
are reported as their largest value over all runs. `--runs` also prints
every pair's readings, the side that ran first marked `b` or `c`.

Exits non-zero when a binary fails or reports a benchmark error.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys


def run_once(binary, args):
    """Runs one binary once; returns {benchmark name: result dict}."""
    cmd = ["taskset", "-c", str(args.cpu), binary,
           "--benchmark_filter=" + args.filter,
           "--benchmark_min_time=" + str(args.min_time),
           "--benchmark_format=json"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s exited with %d" % (binary, proc.returncode))
    results = {}
    for bench in json.loads(proc.stdout)["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if bench.get("error_occurred"):
            raise RuntimeError("%s: %s: %s" % (
                binary, bench["name"], bench.get("error_message", "")))
        results[bench["name"]] = bench
    if not results:
        raise RuntimeError("%s ran no benchmark matching %r" %
                           (binary, args.filter))
    return results


def metric(bench):
    """(value, unit, higher_is_better) of one benchmark result."""
    if "items_per_second" in bench:
        return bench["items_per_second"] / 1e6, "M items/s", True
    return bench["real_time"], bench.get("time_unit", "ns"), False


def largest(side_runs, name, counter):
    """Largest value of one benchmark's counter over one side's runs."""
    return max(r[name].get(counter, 0.0) for r in side_runs)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(
        description="Pinned, alternating pairs of two benchmark binaries.")
    parser.add_argument("base", help="benchmark binary of the base build")
    parser.add_argument("change", help="benchmark binary of the changed build")
    parser.add_argument("--filter", default=".",
                        help="--benchmark_filter regex (default: all)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="number of pairs (default 10)")
    parser.add_argument("--cpu", type=int, default=2,
                        help="core both sides are pinned to (default 2)")
    parser.add_argument("--min-time", type=float, default=1.0,
                        help="--benchmark_min_time per benchmark, seconds "
                             "(default 1)")
    parser.add_argument("--runs", action="store_true",
                        help="also print every pair's readings")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if shutil.which("taskset") is None:
        parser.error("taskset not found (util-linux)")

    sides = {"base": args.base, "change": args.change}
    runs = {"base": [], "change": []}
    order = []
    for pair in range(args.pairs):
        first, second = (("base", "change") if pair % 2 == 0
                         else ("change", "base"))
        order.append(first[0])
        for side in (first, second):
            runs[side].append(run_once(sides[side], args))
        sys.stderr.write("pair %d/%d done\n" % (pair + 1, args.pairs))

    names = [n for n in runs["base"][0] if n in runs["change"][0]]
    rows = []
    for name in names:
        base = [metric(r[name]) for r in runs["base"]]
        change = [metric(r[name]) for r in runs["change"]]
        unit, higher = base[0][1], base[0][2]
        bv = [v for v, _, _ in base]
        cv = [v for v, _, _ in change]
        wins = sum(1 for b, c in zip(bv, cv) if (c > b if higher else c < b))
        bq, cq = quartiles(bv), quartiles(cv)
        allocs = sorted({k for r in runs["base"] + runs["change"]
                         for k in r[name] if k.startswith("allocs_per")})
        alloc_text = "; ".join(
            "%s max %g / %g" % (k, largest(runs["base"], name, k),
                                largest(runs["change"], name, k))
            for k in allocs)
        rows.append((name, unit, bq, cq, cq[1] / bq[1], wins, alloc_text))
        if args.runs:
            print("%s (%s): %s" % (name, unit, "; ".join(
                "%d%s %.3g / %.3g" % (i + 1, order[i], b, c)
                for i, (b, c) in enumerate(zip(bv, cv)))))

    if args.runs:
        print()
    print("%d pairs pinned to CPU %d, alternating; median (quartiles)"
          % (args.pairs, args.cpu))
    print("| benchmark | unit | base | change | change/base | change won "
          "| allocs (base / change) |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, unit, bq, cq, ratio, wins, alloc_text in rows:
        print("| %s | %s | %.3g (%.3g-%.3g) | %.3g (%.3g-%.3g) | %.3f "
              "| %d/%d | %s |"
              % (name, unit, bq[1], bq[0], bq[2], cq[1], cq[0], cq[2], ratio,
                 wins, args.pairs, alloc_text or "-"))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        sys.stderr.write("error: %s\n" % e)
        sys.exit(1)
