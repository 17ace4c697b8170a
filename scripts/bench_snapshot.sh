#!/usr/bin/env bash
# Snapshot the hot-path microbenchmarks into a reviewable JSON file.
#
#   scripts/bench_snapshot.sh                     # quick mode -> BENCH_pr10.json
#   scripts/bench_snapshot.sh --out FILE          # alternate output path
#   scripts/bench_snapshot.sh --preset bench      # use the Release+IPO tree
#   scripts/bench_snapshot.sh --preset bench-pgo  # Release+IPO+PGO (two-phase)
#
# Quick mode keeps wall time small (~30 s): 0.25 s per benchmark, one
# repetition. The JSON records events/s, ns per op, and the allocation
# counters for the event-queue hold model, the end-to-end packet pipeline
# (heap vs calendar), and the scheduler dequeue microbenches, so a PR diff
# shows hot-path regressions without anyone re-running the suite.
#
# The bench-pgo preset runs profile-guided optimization in two phases:
# configure with -DPDS_PGO=generate, build, run both microbench binaries as
# the training workload, then reconfigure the SAME tree with -DPDS_PGO=use,
# rebuild, and measure. The profile directory lives inside the build tree,
# so a later plain build of the preset is unaffected.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

OUT="BENCH_pr10.json"
PRESET="default"
MIN_TIME="0.25"
REPS="1"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out)    OUT="$2"; shift 2 ;;
    --preset) PRESET="$2"; shift 2 ;;
    --min-time) MIN_TIME="$2"; shift 2 ;;
    --reps)   REPS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

case "${PRESET}" in
  default)   BUILD_DIR="build" ;;
  bench)     BUILD_DIR="build-bench" ;;
  bench-pgo) BUILD_DIR="build-bench-pgo" ;;
  *) echo "unsupported preset: ${PRESET} (use default, bench or bench-pgo)" >&2
     exit 2 ;;
esac

# Reuse an already-configured tree as-is (its cached generator may differ
# from the preset's, e.g. a Makefiles tree on a box where the preset says
# Ninja); only a fresh tree goes through the preset.
configure() {
  if [[ -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
    cmake -B "${BUILD_DIR}" -S . "$@" >/dev/null
  else
    cmake --preset "${PRESET}" "$@" >/dev/null
  fi
}

build_benches() {
  cmake --build "${BUILD_DIR}" -j "${JOBS}" \
    --target micro_event_queue micro_schedulers >/dev/null
}

if [[ "${PRESET}" == "bench-pgo" ]]; then
  PGO_DIR="$(pwd)/${BUILD_DIR}/pgo"
  echo "bench-pgo phase 1/2: instrumented build + training run" >&2
  configure -DPDS_PGO=generate "-DPDS_PGO_DIR=${PGO_DIR}"
  build_benches
  # Training workload: the exact benchmarks we measure, short iterations.
  "./${BUILD_DIR}/bench/micro_event_queue" \
    --benchmark_min_time=0.1 >/dev/null 2>&1
  "./${BUILD_DIR}/bench/micro_schedulers" \
    --benchmark_min_time=0.1 >/dev/null 2>&1
  echo "bench-pgo phase 2/2: profile-guided rebuild" >&2
  configure -DPDS_PGO=use "-DPDS_PGO_DIR=${PGO_DIR}"
  # The flag change does not retrigger compilation by itself under every
  # generator; force a clean rebuild of the object files.
  cmake --build "${BUILD_DIR}" --target clean >/dev/null
  build_benches
else
  configure
  build_benches
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# With --reps > 1 the runner emits per-repetition rows plus aggregates; the
# parser below then keeps only the *_median rows, which tames scheduler
# noise on shared machines.
"./${BUILD_DIR}/bench/micro_event_queue" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_format=json >"${TMP}/event_queue.json" 2>/dev/null
"./${BUILD_DIR}/bench/micro_schedulers" \
  --benchmark_min_time="${MIN_TIME}" \
  --benchmark_repetitions="${REPS}" \
  --benchmark_format=json >"${TMP}/schedulers.json" 2>/dev/null

python3 - "${TMP}" "${OUT}" "${PRESET}" "${REPS}" <<'PY'
import json
import subprocess
import sys

tmp, out, preset, reps = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])


def load(path):
    with open(path) as f:
        return json.load(f)


def rows(doc):
    result = {}
    for b in doc.get("benchmarks", []):
        if reps > 1:
            # Multi-repetition run: keep the median aggregate per benchmark.
            if b.get("aggregate_name") != "median":
                continue
            name = b["name"].removesuffix("_median")
        else:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"]
        entry = {"ns_per_iter": round(b["real_time"], 1)}
        if "items_per_second" in b:
            entry["items_per_second"] = round(b["items_per_second"])
        for counter in ("allocs_per_op", "allocs_per_pkt", "ns_per_dequeue"):
            if counter in b:
                entry[counter] = round(b[counter], 6)
        result[name] = entry
    return result


eq = load(f"{tmp}/event_queue.json")
sched = load(f"{tmp}/schedulers.json")

git_rev = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"],
    capture_output=True, text=True).stdout.strip() or "unknown"

snapshot = {
    "preset": preset,
    "repetitions": reps,
    "git": git_rev,
    "context": {
        k: eq.get("context", {}).get(k)
        for k in ("host_name", "num_cpus", "mhz_per_cpu", "library_build_type")
    },
    "event_queue": rows(eq),
    "schedulers": rows(sched),
}

pipeline = snapshot["event_queue"]
heap = pipeline.get("BM_PacketPipelineHeap", {}).get("items_per_second")
cal = pipeline.get("BM_PacketPipelineCalendar", {}).get("items_per_second")
if heap and cal:
    snapshot["pipeline_calendar_over_heap"] = round(cal / heap, 3)

with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out} (preset={preset})")
PY
