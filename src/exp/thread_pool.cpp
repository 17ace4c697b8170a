#include "exp/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/args.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

// Worker index of the current thread while inside a parallel_for body;
// 0 (the submitter id) otherwise. Nested parallel_for calls inherit it.
thread_local std::uint32_t t_worker_id = 0;
thread_local bool t_in_parallel = false;

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global_pool;

}  // namespace

// A per-participant deque of loop indices. Both ends are claimed under the
// shard mutex: the owner pops `begin`, thieves pop `end`. Contention is
// negligible — a steal only happens when the thief's own shard is empty,
// and sweep cells are orders of magnitude heavier than one lock op.
struct ThreadPool::Shard {
  std::mutex mu;
  std::size_t begin = 0;
  std::size_t end = 0;

  bool claim_front(std::size_t& index) {
    std::lock_guard<std::mutex> lk(mu);
    if (begin >= end) return false;
    index = begin++;
    return true;
  }
  bool claim_back(std::size_t& index) {
    std::lock_guard<std::mutex> lk(mu);
    if (begin >= end) return false;
    index = --end;
    return true;
  }
};

struct ThreadPool::Job {
  const IndexedBody* body = nullptr;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  // Per-participant work accounting: each participant writes only its own
  // slot while the job runs; the submitter folds the slots into the pool
  // totals after the idle barrier, when no worker touches the job anymore.
  std::vector<PoolWorkerStats> slots;
};

ThreadPool::ThreadPool(std::uint32_t workers)
    : n_participants_(resolve_workers(workers)) {
  stats_.workers.resize(n_participants_);
  threads_.reserve(n_participants_ - 1);
  try {
    for (std::uint32_t id = 1; id < n_participants_; ++id) {
      threads_.emplace_back([this, id] { worker_main(id); });
    }
  } catch (...) {
    // A thread failed to start: join the ones that did, whose destructors
    // would otherwise call std::terminate.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::in_parallel_region() { return t_in_parallel; }

PoolStats ThreadPool::stats() const {
  PDS_CHECK(!t_in_parallel,
            "cannot snapshot pool stats from inside a parallel region");
  std::lock_guard<std::mutex> lk(stats_mu_);
  return stats_;
}

void ThreadPool::reset_stats() {
  PDS_CHECK(!t_in_parallel,
            "cannot reset pool stats from inside a parallel region");
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_ = PoolStats{};
  stats_.workers.resize(n_participants_);
}

std::uint32_t ThreadPool::resolve_workers(std::uint32_t requested) {
  if (requested > kMaxJobs) {
    throw std::invalid_argument(
        "--jobs/PDS_JOBS: worker count must be at most " +
        std::to_string(kMaxJobs) + ", got " + std::to_string(requested));
  }
  if (requested > 0) return requested;
  if (const std::uint32_t env = jobs_from_env(); env > 0) return env;
  return std::clamp<std::uint32_t>(std::thread::hardware_concurrency(), 1,
                                   kMaxJobs);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_global_mu);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(resolve_workers(0));
  }
  return *g_global_pool;
}

void ThreadPool::set_global_workers(std::uint32_t workers) {
  PDS_CHECK(!t_in_parallel,
            "cannot resize the pool from inside a parallel region");
  std::lock_guard<std::mutex> lk(g_global_mu);
  const std::uint32_t want = resolve_workers(workers);
  if (g_global_pool && g_global_pool->workers() == want) return;
  g_global_pool.reset();  // join the old crew before starting the new one
  g_global_pool = std::make_unique<ThreadPool>(want);
}

void ThreadPool::parallel_for(std::size_t count, const IndexedBody& body) {
  if (count == 0) return;
  if (t_in_parallel || threads_.empty() || count == 1) {
    // Nested, single-worker, or trivial: run inline on this participant.
    // Nested loops are not separately accounted — their wall time already
    // belongs to the enclosing body's claim.
    const bool was_in_parallel = t_in_parallel;
    t_in_parallel = true;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      for (std::size_t i = 0; i < count; ++i) body(t_worker_id, i);
    } catch (...) {
      t_in_parallel = was_in_parallel;
      throw;
    }
    t_in_parallel = was_in_parallel;
    if (!was_in_parallel) {
      const auto t1 = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lk(stats_mu_);
      ++stats_.jobs;
      PoolWorkerStats& slot = stats_.workers[t_worker_id];
      slot.claimed += count;
      slot.busy_seconds += std::chrono::duration<double>(t1 - t0).count();
    }
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mu_);
  Job job;
  job.body = &body;
  job.slots.resize(n_participants_);
  const auto shard_count = static_cast<std::uint32_t>(
      std::min<std::size_t>(n_participants_, count));
  job.shards.reserve(shard_count);
  const std::size_t base = count / shard_count;
  const std::size_t rem = count % shard_count;
  std::size_t at = 0;
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->begin = at;
    at += base + (s < rem ? 1 : 0);
    shard->end = at;
    job.shards.push_back(std::move(shard));
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = &job;
    ++epoch_;
  }
  wake_.notify_all();
  work_on(job, /*self=*/0);
  {
    // The shards are drained, but a worker may still be running its last
    // claimed body (or scanning for steals); the job lives on this stack
    // frame, so wait for every worker to leave it before retiring it.
    std::unique_lock<std::mutex> lk(mu_);
    idle_.wait(lk, [&] { return busy_ == 0; });
    job_ = nullptr;
  }
  {
    // Every worker has left the job, so its slots are quiescent.
    std::lock_guard<std::mutex> lk(stats_mu_);
    ++stats_.jobs;
    for (std::uint32_t w = 0; w < n_participants_; ++w) {
      stats_.workers[w].claimed += job.slots[w].claimed;
      stats_.workers[w].stolen += job.slots[w].stolen;
      stats_.workers[w].busy_seconds += job.slots[w].busy_seconds;
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_main(std::uint32_t id) {
  std::uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_.wait(lk, [&] {
      return stop_ || (job_ != nullptr && epoch_ != seen_epoch);
    });
    if (stop_) return;
    Job* job = job_;
    seen_epoch = epoch_;
    ++busy_;
    lk.unlock();
    work_on(*job, id);
    lk.lock();
    if (--busy_ == 0) idle_.notify_all();
  }
}

void ThreadPool::work_on(Job& job, std::uint32_t self) {
  const auto shard_count = static_cast<std::uint32_t>(job.shards.size());
  const std::uint32_t prev_id = t_worker_id;
  const bool was_in_parallel = t_in_parallel;
  t_worker_id = self;
  t_in_parallel = true;
  const std::uint32_t home = self % shard_count;
  PoolWorkerStats& slot = job.slots[self];
  std::size_t index = 0;
  const auto timed_run = [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    run_index(job, self, i);
    const auto t1 = std::chrono::steady_clock::now();
    slot.busy_seconds += std::chrono::duration<double>(t1 - t0).count();
  };
  while (!job.failed.load(std::memory_order_relaxed)) {
    if (job.shards[home]->claim_front(index)) {
      ++slot.claimed;
      timed_run(index);
      continue;
    }
    bool stole = false;
    for (std::uint32_t off = 1; off < shard_count && !stole; ++off) {
      if (job.shards[(home + off) % shard_count]->claim_back(index)) {
        stole = true;
        ++slot.stolen;
        timed_run(index);
      }
    }
    if (!stole) break;  // every shard is dry
  }
  t_worker_id = prev_id;
  t_in_parallel = was_in_parallel;
}

void ThreadPool::run_index(Job& job, std::uint32_t self, std::size_t index) {
  try {
    (*job.body)(self, index);
  } catch (...) {
    std::lock_guard<std::mutex> lk(job.error_mu);
    if (!job.error) job.error = std::current_exception();
    job.failed.store(true, std::memory_order_relaxed);
  }
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for(
      count, [&body](std::uint32_t, std::size_t i) { body(i); });
}

void parallel_for(std::size_t count, const ThreadPool::IndexedBody& body) {
  ThreadPool::global().parallel_for(count, body);
}

}  // namespace pds
