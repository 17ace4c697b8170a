#!/usr/bin/env bash
# Tier-1 verification plus a sanitizer pass.
#
#   scripts/check.sh          # plain build + ctest, then ASan/UBSan build + ctest
#   scripts/check.sh --fast   # plain build + ctest only
#
# The sanitizer configuration lives in build-asan/ so it never dirties the
# primary build/ tree. Both passes must be green before merging.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: plain build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== floating point: no FMA in the library (-march=native build) =="
# The top-level CMakeLists.txt compiles everything with -ffp-contract=off: a
# fused multiply-add rounds once where a multiply and an add round twice, so
# a contraction could move a scheduling decision while every pin and golden
# hash still passes. The default target has no FMA instructions, so the
# check needs a host that has them: build the library for this CPU and fail
# on any vfmadd/vfmsub/vfnmadd/vfnmsub in an object under src/.
if grep -qw fma /proc/cpuinfo; then
  cmake -B build-native -S . -DCMAKE_CXX_FLAGS=-march=native \
    -DPDS_BUILD_TESTS=OFF -DPDS_BUILD_BENCH=OFF \
    -DPDS_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-native -j "${JOBS}"
  command -v objdump >/dev/null || { echo "error: no objdump" >&2; exit 1; }
  FMA_OBJECTS=0
  OBJECTS=0
  while IFS= read -r obj; do
    OBJECTS=$((OBJECTS + 1))
    # Disassemble first: under pipefail, `objdump | grep -q` would report
    # objdump's SIGPIPE after an early match as "no match".
    DISASM="$(objdump -d "${obj}")"
    if grep -qE 'vfn?m(add|sub)' <<< "${DISASM}"; then
      echo "   FMA instruction in ${obj}"
      FMA_OBJECTS=$((FMA_OBJECTS + 1))
    fi
  done < <(find build-native/src -name '*.o' | sort)
  if (( FMA_OBJECTS > 0 )); then
    echo "error: ${FMA_OBJECTS} library object(s) contain FMA instructions" >&2
    exit 1
  fi
  echo "   no FMA instruction in ${OBJECTS} library objects"
else
  echo "   host CPU has no FMA; skipped"
fi

echo "== bench targets compile (micro benches guard the allocation budget) =="
cmake --build build -j "${JOBS}" --target micro_event_queue micro_schedulers

echo "== micro benches: quick run (hot-path smoke, ~5 s) =="
# Not a performance gate — a smoke run that exercises the kernel's binary
# heap and the scheduler hot paths end to end. BM_PacketPipelineHeap is the
# 0-alloc pipeline gate: it reports an error when a steady-state packet
# allocates, a regression the unit tests abstract away.
./build/bench/micro_event_queue --benchmark_min_time=0.05 \
  --benchmark_format=console 2>/dev/null | tail -n +4
./build/bench/micro_schedulers --benchmark_min_time=0.05 \
  --benchmark_format=console 2>/dev/null | tail -n +4

echo "== scenario smoke: parse + short run of every examples/scenarios/*.pds =="
# Every shipped scenario must parse and run end to end (10% horizon); the
# fat-tree sweep additionally pins the sweep-mode determinism contract:
# stdout byte-identical for any --jobs.
for pds in examples/scenarios/*.pds; do
  echo "   ${pds}"
  ./build/examples/netsim_cli --file="${pds}" --quick >/dev/null
done
SWEEP_A="$(mktemp)"; SWEEP_B="$(mktemp)"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --sweep-users=4,8 --jobs=1 > "${SWEEP_A}"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --sweep-users=4,8 --jobs=4 > "${SWEEP_B}"
diff "${SWEEP_A}" "${SWEEP_B}"
rm -f "${SWEEP_A}" "${SWEEP_B}"

echo "== control plane: reconfigured-run determinism + controller smoke =="
# A controlled run must stay byte-identical for any --jobs: every
# retune/swap/shed boundary is a plan-scripted simulator event
# (docs/control_plane.md). The plan exercises a prefix wildcard fan-out, a
# live scheduler swap and the overload shed guard on the fat-tree fabric;
# the simulate_cli line closes the loop through the feedback controller.
CTRL_PLAN="$(mktemp)"
cat > "${CTRL_PLAN}" <<'EOF'
retune p0* at=8000 w=1,3,9
swap core0>p1agg0 at=12000 sched=hpd
shed p0edge0>p0agg0 at=10000 for=10000 watermark=40 classes=1
EOF
CTRL_A="$(mktemp)"; CTRL_B="$(mktemp)"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --control-plan="${CTRL_PLAN}" --sweep-users=4,8 --jobs=1 \
  > "${CTRL_A}"
./build/examples/netsim_cli --file=examples/scenarios/fat_tree.pds \
  --quick --control-plan="${CTRL_PLAN}" --sweep-users=4,8 --jobs=4 \
  > "${CTRL_B}"
diff "${CTRL_A}" "${CTRL_B}"
rm -f "${CTRL_PLAN}" "${CTRL_A}" "${CTRL_B}"
./build/examples/simulate_cli --scheduler=wtp --rho=0.9 --sim-time=30000 \
  --controller=weights --conformance-tau=50 >/dev/null

echo "== loss differentiation: finite-buffer Study A determinism =="
# ext_loss_differentiation runs Study A's finite-buffer case (drop-tail,
# PLR(inf) and PLR(M) push-out) as three sweep cells; like every sweep, its
# table must be byte-identical for any --jobs.
LOSS_A="$(mktemp)"; LOSS_B="$(mktemp)"
./build/bench/ext_loss_differentiation --quick --jobs=1 > "${LOSS_A}"
./build/bench/ext_loss_differentiation --quick --jobs=4 > "${LOSS_B}"
diff "${LOSS_A}" "${LOSS_B}"
rm -f "${LOSS_A}" "${LOSS_B}"

echo "== observability: compile-out proof + disabled-path overhead guard =="
# -DPDS_OBS=OFF must keep compiling everything that touches the telemetry
# plane (the macros and #if gates are only honest if both sides build), and
# the compiled-in-but-disabled paths must stay within the <5% contract. The
# packet ledger reads only Link's own counters, so it must hold with the
# probes compiled out too. The overhead smoke uses reduced sizes, and the
# full run stays available by hand. The guard judges each disabled path by
# the median of its per-rep ratio to a baseline timed back to back with it;
# 31 reps (about 8 s) keep host noise below the 5% threshold far more
# often than the old best-of-3 did (EXPERIMENTS.md, "One event chain").
cmake -B build-obsoff -S . -DPDS_OBS=OFF >/dev/null
cmake --build build-obsoff -j "${JOBS}" \
  --target simulate_cli ext_fault_resilience micro_obs_overhead \
  obs_test conformance_test telemetry_test ledger_test
./build-obsoff/tests/obs_test
./build-obsoff/tests/conformance_test
./build-obsoff/tests/telemetry_test
./build-obsoff/tests/ledger_test
cmake --build build -j "${JOBS}" --target micro_obs_overhead
./build/bench/micro_obs_overhead --events=300000 --packets=80000 --reps=31

echo "== benchmark mirror: perfbench self-test =="
# perfbench/ builds its own Release tree against the library sources, and
# its traced rebuild mirrors the serial scenario runner: the self-test fails
# when a library change breaks that build or when the traced run stops
# reproducing the untraced output digest.
CARGO_TARGET_DIR=build-perfbench python3 perfbench/selftest.py

if [[ "${1:-}" == "--fast" ]]; then
  echo "== fast mode: targeted ASan/UBSan over kernel + packet plane + sched + traffic + fault + ctrl + supervisor + obs + fuzz suites =="
  # Even the fast path sanitizes the robustness layer: fault injection,
  # live reconfiguration (scheduler swaps hand raw backlogs across) and
  # run supervision exercise exception unwinding and teardown ordering, the
  # classic breeding ground for use-after-free. The obs suites join them
  # because atomic-file commit/discard and span-buffer teardown live on the
  # same unwind paths, and the grammar fuzzer because every malformed input
  # must be rejected without undefined behaviour (UBSan is fatal here). The
  # packet-plane suites cover the raw-memory class rings, the head snapshot
  # the selection loop reads, and Link's transmit staging buffer; the buffer
  # suites cover Link's drop policies, whose PLR push-out pops a raw ring
  # tail, and the Study A and Study C suites drive that path through
  # run_study_a's finite buffer.
  # The kernel suites cover the pending-event set Simulator holds by value:
  # a heap of keys whose move-only SimEvents sit in pool slots that each
  # pop vacates and a later push reuses. The scheduler suites
  # cover every scheduler's one dequeue_burst over the class rings,
  # including the tag schedulers' tag queues beside them, and the one
  # class-selection loop those decisions share. The traffic suites cover
  # the one event chain (dsim Process) every source, the metrics ticker and
  # the controller run on, whose shared state outlives a destroyed owner.
  cmake -B build-asan -S . -DPDS_SANITIZE=ON >/dev/null
  cmake --build build-asan -j "${JOBS}" \
    --target fault_test ctrl_test controller_test supervisor_test obs_test \
    conformance_test telemetry_test grammar_fuzz_test queueing_test \
    selection_test burst_test link_test sched_property_test sched_pin_test \
    fabric_conservation_test dropper_test lossy_property_test study_a_test \
    study_c_test ledger_test event_queue_test dsim_test sim_event_test \
    dispatch_equiv_test sched_basic_test capacity_sched_test wtp_test \
    bpr_test pad_hpd_test traffic_test traffic_ext_test
  ./build-asan/tests/event_queue_test
  ./build-asan/tests/dsim_test
  ./build-asan/tests/traffic_test
  ./build-asan/tests/traffic_ext_test
  ./build-asan/tests/sim_event_test
  ./build-asan/tests/dispatch_equiv_test
  ./build-asan/tests/grammar_fuzz_test
  ./build-asan/tests/queueing_test
  ./build-asan/tests/selection_test
  ./build-asan/tests/burst_test
  ./build-asan/tests/link_test
  ./build-asan/tests/sched_property_test
  ./build-asan/tests/sched_pin_test
  ./build-asan/tests/fabric_conservation_test
  ./build-asan/tests/dropper_test
  ./build-asan/tests/lossy_property_test
  ./build-asan/tests/study_a_test
  ./build-asan/tests/study_c_test
  ./build-asan/tests/ledger_test
  ./build-asan/tests/fault_test
  ./build-asan/tests/ctrl_test
  ./build-asan/tests/controller_test
  ./build-asan/tests/supervisor_test
  ./build-asan/tests/obs_test
  ./build-asan/tests/conformance_test
  ./build-asan/tests/telemetry_test
  ./build-asan/tests/sched_basic_test
  ./build-asan/tests/capacity_sched_test
  ./build-asan/tests/wtp_test
  ./build-asan/tests/bpr_test
  ./build-asan/tests/pad_hpd_test
  echo "== done (fast mode, full sanitizer pass skipped) =="
  exit 0
fi

echo "== sanitizers: ASan + UBSan build + tests =="
cmake -B build-asan -S . -DPDS_SANITIZE=ON >/dev/null
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "== sanitizers: TSan build + threaded suites (experiment engine) =="
# ASan and TSan cannot share a binary, so the TSan pass gets its own tree.
# Only the suites that exercise threads are run: the experiment engine
# (pool/steal/exception paths), the kernel it drives concurrently, and the
# scenario suite (its controlled-sweep byte-identity test fans a
# reconfigured run over the pool).
cmake -B build-tsan -S . -DPDS_TSAN=ON -DPDS_BUILD_BENCH=OFF \
  -DPDS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "${JOBS}" \
  --target exp_test dsim_test supervisor_test scenario_test
./build-tsan/tests/exp_test
./build-tsan/tests/dsim_test
./build-tsan/tests/supervisor_test
./build-tsan/tests/scenario_test

echo "== all checks passed =="
