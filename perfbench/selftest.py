#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Builds the perfbench binary like run.py does, then for every workload in
BENCHMARK.json checks that
  * --trace 0 prints every end_to_end metric and --trace 1 every per_layer
    metric, each with the unit BENCHMARK.json gives it, both as a
    "metric <name> <value> <unit>" line and in the final result object, and
    that the run is correct with nothing failed;
  * a run whose second checked call has its output digest flipped
    (--perturb-digest 2) reports that call as failed and the run as not
    correct.
Each run measures for one second. Exits 0 when every check passes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


class Args:
    def __init__(self, workload, trace):
        self.workload = workload
        self.seed = run.DEFAULT_SEED
        self.seconds = 1
        self.trace = trace


def check_metrics(lines, result, expected):
    errors = []
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if set(got) != set(expected):
        errors.append("result metrics %s != %s" % (sorted(got), sorted(expected)))
    for name, unit in expected.items():
        if got.get(name) != unit:
            errors.append("%s: result unit %r, expected %r" % (name, got.get(name), unit))
        if printed.get(name) != unit:
            errors.append("%s: printed unit %r, expected %r" % (name, printed.get(name), unit))
        value = result["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)):
            errors.append("%s: value %r is not a number" % (name, value))
    return errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = run.build()
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = "%s --trace %d" % (w["name"], trace)
            code, lines = run.run_bench(binary, Args(w["name"], trace))
            result = run.parse_result(lines)
            if code != 0 or result is None:
                failures.append("%s: exit %d, no result" % (label, code))
                continue
            errs = check_metrics(lines, result, expected[trace])
            if not result["correct"] or result["failed"] != 0:
                errs.append("not correct: %s" % lines[-1])
            failures += ["%s: %s" % (label, e) for e in errs]
            print("%-32s %s" % (label, "ok" if not errs else "FAIL"), flush=True)

        label = "%s perturbed digest" % w["name"]
        code, lines = run.run_bench(binary, Args(w["name"], 0),
                                    ["--perturb-digest", "2"])
        result = run.parse_result(lines)
        ok = (code == 0 and result is not None and result["failed"] >= 1
              and result["correct"] is False)
        if not ok:
            failures.append("%s: not counted as failed: %s" % (label, lines[-1:] or code))
        print("%-32s %s" % (label, "ok" if ok else "FAIL"), flush=True)

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
