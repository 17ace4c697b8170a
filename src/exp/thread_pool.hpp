// Experiment engine: a process-wide persistent work-stealing thread pool.
//
// The paper's evaluation is a large grid of independent simulations (rho x
// SDP spacing x scheduler x seed cells); this pool is the fan-out substrate
// every bench and study harness shares. One pool instance serves the whole
// process (ThreadPool::global(), lazily created on first use) so repeated
// parallel_for calls reuse the same worker threads instead of spawning and
// joining a fresh crew per call.
//
// Execution model: parallel_for(count, body) splits [0, count) into one
// contiguous shard per participant (a per-worker deque). Each participant
// pops indices from the *front* of its own shard and, when it runs dry,
// steals from the *back* of a victim's shard — classic work stealing, so a
// slow cell on one worker never strands the rest of its shard. The
// submitting thread is participant 0 and works too: a pool of `workers`
// executes with `workers` concurrent bodies on `workers - 1` threads, and a
// 1-worker pool runs the loop inline on the caller, making `--jobs=1`
// exactly the serial execution.
//
// Contracts:
//  * Exceptions thrown by a body propagate to the submitter (the first one
//    wins; claiming stops as soon as a body has thrown).
//  * Nested parallel_for calls — a body that itself fans out — execute
//    inline on the calling participant: no deadlock, no oversubscription,
//    and the nesting callee keeps the caller's worker index.
//  * One job runs at a time; concurrent submitters from distinct threads
//    serialize on an internal mutex.
//  * Worker count resolution: explicit argument > PDS_JOBS env >
//    hardware_concurrency; 0 means "auto" at every level, and no level
//    may exceed kMaxJobs (util/args.hpp).
//
// Determinism: the pool promises nothing about execution *order*. Callers
// that need deterministic output write results by index into pre-sized
// storage (see exp/sweep.hpp) and keep per-index work independent (e.g.
// per-cell seeds); then the assembled output is byte-identical to a
// single-worker run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pds {

// Lifetime work accounting for one pool participant. `claimed` counts
// indices popped from the participant's own shard, `stolen` those taken from
// a victim's shard; `busy_seconds` is wall time spent inside bodies. All of
// it is wall-clock / schedule-dependent telemetry: it feeds run reports and
// the wall-mode span view, never deterministic output.
struct PoolWorkerStats {
  std::uint64_t claimed = 0;
  std::uint64_t stolen = 0;
  double busy_seconds = 0.0;
};

struct PoolStats {
  std::uint64_t jobs = 0;  // parallel_for calls (including inline ones)
  std::vector<PoolWorkerStats> workers;

  std::uint64_t total_steals() const noexcept {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.stolen;
    return n;
  }
};

class ThreadPool {
 public:
  // body(worker, index): `worker` is the participant id in [0, workers()),
  // stable for the duration of one body call — use it to index per-worker
  // scratch state hoisted out of the loop.
  using IndexedBody = std::function<void(std::uint32_t, std::size_t)>;

  explicit ThreadPool(std::uint32_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of concurrent participants (including the submitting thread).
  std::uint32_t workers() const { return n_participants_; }

  void parallel_for(std::size_t count, const IndexedBody& body);

  // Cumulative work accounting since construction (or the last
  // reset_stats()); one entry per participant. Folded in at the end of every
  // parallel_for, so a snapshot taken between jobs is consistent. Must not
  // be called from inside a parallel region.
  PoolStats stats() const;
  void reset_stats();

  // True while the current thread is executing inside a parallel_for body
  // (worker thread or participating submitter).
  static bool in_parallel_region();

  // The process-wide pool. First use creates it with resolve_workers(0).
  static ThreadPool& global();

  // Replaces the global pool (joining the old workers) unless it already
  // has the requested size. `workers == 0` means auto. Must not be called
  // from inside a parallel region.
  static void set_global_workers(std::uint32_t workers);

  // requested > 0 -> requested; else PDS_JOBS env (when positive); else
  // hardware_concurrency clamped to [1, kMaxJobs]. Throws
  // std::invalid_argument when `requested` exceeds kMaxJobs
  // (util/args.hpp) or PDS_JOBS is not an integer in [0, kMaxJobs].
  static std::uint32_t resolve_workers(std::uint32_t requested);

 private:
  struct Shard;
  struct Job;

  // Signals stop and joins every started worker.
  void stop_workers() noexcept;
  void worker_main(std::uint32_t id);
  void work_on(Job& job, std::uint32_t self);
  static void run_index(Job& job, std::uint32_t self, std::size_t index);

  std::uint32_t n_participants_;
  std::vector<std::thread> threads_;

  mutable std::mutex stats_mu_;
  PoolStats stats_;

  std::mutex mu_;
  std::condition_variable wake_;  // workers: a new job epoch is available
  std::condition_variable idle_;  // submitter: all workers left the job
  Job* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint32_t busy_ = 0;  // workers currently inside work_on
  bool stop_ = false;

  std::mutex submit_mu_;  // one job at a time
};

// Convenience wrappers over ThreadPool::global().
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body);
void parallel_for(std::size_t count, const ThreadPool::IndexedBody& body);

}  // namespace pds
