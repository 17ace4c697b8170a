#!/usr/bin/env python3
"""End-to-end benchmark of the PDS simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the simulator library and the
benchmark program (perfbench/main.cpp) from source (Release, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload (see
perfbench/README.md):

  --trace 0  closed-loop timed calls for --seconds; prints the end-to-end
             metrics pkts_per_s, run_s, setup_s, peak_rss_mb.
  --trace 1  untraced calls alternating with traced rebuilds; prints the
             per-layer metrics and writes the recorded spans as a Chrome
             trace under <build dir>/spans/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to standard error. Exits
non-zero, without a result, when the build or the run fails.

DEFAULT_SEED is the seed to tune on; HELDOUT_SEED is kept back so a claimed
gain can be re-checked on a seed it was not tuned on.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no simulator sources under " + ROOT)
    out = os.path.join(build_root(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def revision():
    """Git revision when the checkout is a repository, else a source hash."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git:" + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_bench(binary, args, extra=()):
    """Runs the perfbench binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision(), *extra]
    # perfbench stops on its own after --seconds plus warm-up; the margin
    # keeps a whole run under three minutes.
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=args.seconds + 120)
    return r.returncode, r.stdout.splitlines()


def parse_result(lines):
    """The result object, or None when the last line is not one."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    extra = []
    if args.trace:
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        extra = ["--spans-out",
                 os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        code, lines = run_bench(binary, args, extra)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if code != 0 or parse_result(lines) is None:
        print("perfbench: run exited %d without a result" % code, file=sys.stderr)
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
