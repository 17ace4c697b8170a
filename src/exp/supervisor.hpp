// Run supervision: failure isolation for sweep cells and a watchdog for
// stuck simulations.
//
// run_sweep (exp/sweep.hpp) propagates the first cell exception and abandons
// the rest of the grid — right for programming errors, wrong for long
// multi-hour sweeps where one pathological cell should not cost the other
// thousand. run_supervised_sweep keeps the same determinism contract
// (results written by flat index into a pre-sized vector, byte-identical
// output for any --jobs) but catches per-cell exceptions: a throwing cell is
// recorded as a CellFailure carrying the exception text and never kills
// sibling cells. Failed cells hold a default-constructed result.
//
// Watchdog wraps Simulator::run_until with the kernel run budget
// (Simulator::set_budget): an event-count budget catches livelocks
// deterministically (same trip point on every run), a wall-clock deadline
// catches genuine hangs. When the budget trips, the Watchdog assembles a
// diagnostic snapshot — simulation clock, events executed, pending-heap
// size, plus any caller-supplied detail such as per-class backlogs — and
// throws WatchdogError with the snapshot embedded in what(). Nothing is
// printed: under run_supervised_sweep the snapshot lands in the cell's
// CellFailure record, keeping sweep output byte-identical across --jobs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dsim/simulator.hpp"
#include "dsim/time.hpp"
#include "exp/thread_pool.hpp"

namespace pds {

// One failed sweep cell: the flat grid index, the what() text of its
// exception, and its attempt count (always 1: a cell runs once).
struct CellFailure {
  std::size_t index = 0;
  std::string error;
  int attempts = 0;
};

// Per-cell execution telemetry captured by run_supervised_sweep when
// SupervisorOptions::telemetry is set. The deterministic fields (index,
// work, attempts, failed) are identical for any --jobs; worker / wall times
// are schedule-dependent and feed only the wall-mode span view and the
// volatile run-report section (see obs/span.hpp, obs/report.hpp).
struct CellRecord {
  std::size_t index = 0;
  std::uint32_t worker = 0;   // participant that executed the cell
  double start_s = 0.0;       // wall time from sweep submit to cell start
  double run_s = 0.0;         // wall time inside the cell body
  std::uint64_t work = 0;     // deterministic work measure (report_cell_work)
  int attempts = 0;
  bool failed = false;
};

// Everything a sweep run can report about how it executed: one record per
// cell (in grid order) plus the pool-level accounting delta for the sweep.
struct SweepTelemetry {
  std::vector<CellRecord> cells;
  std::uint32_t workers = 0;
  std::uint64_t steals = 0;             // across the sweep, all workers
  std::vector<double> worker_busy_s;    // per participant, this sweep
  double elapsed_s = 0.0;               // submit to post-barrier assembly
};

// Reports a deterministic work measure (e.g. simulator events executed) for
// the sweep cell currently running on this thread; a no-op outside a
// supervised sweep with telemetry enabled. The measure is attributed to the
// cell regardless of which worker ran it, so it survives the byte-identical
// --jobs contract.
void report_cell_work(std::uint64_t work) noexcept;

namespace detail {
// Thread-local slot report_cell_work writes through; owned by the supervised
// sweep while a cell body runs.
CellRecord*& active_cell_record() noexcept;
}  // namespace detail

// All cells in grid order (failed cells default-constructed) plus the
// failures sorted by index — both deterministic regardless of worker count.
template <typename T>
struct SupervisedResult {
  std::vector<T> cells;
  std::vector<CellFailure> failures;

  bool ok() const noexcept { return failures.empty(); }
};

struct SupervisorOptions {
  // When set, the sweep fills one CellRecord per cell (worker, wall times,
  // attempts, report_cell_work measure) plus the pool stats delta — the raw
  // material for span traces and run reports. Costs two steady_clock reads
  // per cell; null skips all of it.
  SweepTelemetry* telemetry = nullptr;
};

// Like run_sweep(cells, fn) but with per-cell failure isolation.
template <typename Fn>
auto run_supervised_sweep(std::size_t cells, const SupervisorOptions& opts,
                          Fn&& fn)
    -> SupervisedResult<decltype(fn(std::size_t{0}))> {
  SupervisedResult<decltype(fn(std::size_t{0}))> out;
  out.cells.resize(cells);
  std::mutex mu;
  SweepTelemetry* telemetry = opts.telemetry;
  ThreadPool& pool = ThreadPool::global();
  PoolStats stats_before;
  std::chrono::steady_clock::time_point submit_at{};
  if (telemetry) {
    *telemetry = SweepTelemetry{};
    telemetry->cells.resize(cells);
    telemetry->workers = pool.workers();
    stats_before = pool.stats();
    submit_at = std::chrono::steady_clock::now();
  }
  pool.parallel_for(cells, [&](std::uint32_t worker, std::size_t i) {
    CellRecord* record = nullptr;
    std::chrono::steady_clock::time_point t0{};
    if (telemetry) {
      record = &telemetry->cells[i];
      record->index = i;
      record->worker = worker;
      t0 = std::chrono::steady_clock::now();
      record->start_s =
          std::chrono::duration<double>(t0 - submit_at).count();
      detail::active_cell_record() = record;
    }
    std::string error;
    bool ok = false;
    try {
      out.cells[i] = fn(i);
      ok = true;
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    if (record) {
      detail::active_cell_record() = nullptr;
      record->run_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      record->attempts = 1;
      record->failed = !ok;
    }
    if (!ok) {
      const std::lock_guard<std::mutex> lock(mu);
      out.failures.push_back(CellFailure{i, std::move(error), 1});
    }
  });
  // Failures arrive in execution order (worker-dependent); sort by index so
  // the report is as deterministic as the cell vector.
  std::sort(out.failures.begin(), out.failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.index < b.index;
            });
  if (telemetry) {
    const PoolStats stats_after = pool.stats();
    telemetry->steals =
        stats_after.total_steals() - stats_before.total_steals();
    telemetry->worker_busy_s.resize(stats_after.workers.size());
    for (std::size_t w = 0; w < stats_after.workers.size(); ++w) {
      const double before = w < stats_before.workers.size()
                                ? stats_before.workers[w].busy_seconds
                                : 0.0;
      telemetry->worker_busy_s[w] =
          stats_after.workers[w].busy_seconds - before;
    }
    telemetry->elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - submit_at)
                               .count();
  }
  return out;
}

// Watchdog limits. Zero means "unlimited" for each independently.
struct WatchdogLimits {
  std::uint64_t max_events = 0;   // per run_until call, deterministic
  double max_wall_seconds = 0.0;  // per run_until call, hang backstop

  bool enabled() const noexcept {
    return max_events > 0 || max_wall_seconds > 0.0;
  }
};

// Thrown by Watchdog::run_until when the budget trips. what() is the full
// diagnostic snapshot (multi-line); snapshot() returns the same text.
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(const std::string& snapshot_text, SimTime trip_now,
                std::uint64_t trip_executed, std::size_t trip_pending)
      : std::runtime_error(snapshot_text),
        now(trip_now),
        executed(trip_executed),
        pending(trip_pending) {}

  const char* snapshot() const noexcept { return what(); }

  SimTime now;             // clock when the budget tripped
  std::uint64_t executed;  // events executed in the tripping run call
  std::size_t pending;     // pending events (heap and lanes) at the trip
};

// Supervises one simulator run. Arms the kernel budget for the duration of
// each run_until call and converts SimBudgetExceeded into a WatchdogError
// whose what() is a diagnostic snapshot:
//
//   watchdog: event budget exceeded (100000 events)
//     now=812.5 executed=100000 pending=37
//     class 0 backlog=12
//     class 1 backlog=25
//
// The indented tail comes from the optional SnapshotFn, which the caller
// supplies to report domain state (per-class backlogs, episode counters).
// The snapshot function runs after the budget trips, outside the event loop;
// it must not schedule events.
class Watchdog {
 public:
  using SnapshotFn = std::function<std::string()>;

  Watchdog(Simulator& sim, WatchdogLimits limits, SnapshotFn snapshot = {});
  ~Watchdog();  // disarms the budget

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Runs the simulator to t_end under the limits. Throws WatchdogError when
  // the budget trips; the simulator itself is left consistent (clock at the
  // last executed event, pending events intact).
  void run_until(SimTime t_end);

  bool tripped() const noexcept { return tripped_; }

 private:
  Simulator& sim_;
  WatchdogLimits limits_;
  SnapshotFn snapshot_;
  bool tripped_ = false;
};

}  // namespace pds
