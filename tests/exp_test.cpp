// Experiment engine (src/exp): work-stealing pool semantics — coverage,
// worker ids, exception propagation, nesting, oversubscription — and the
// determinism contract: a sweep's assembled output is byte-identical for
// any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/study_a.hpp"
#include "exp/sweep.hpp"
#include "exp/thread_pool.hpp"
#include "util/table.hpp"

namespace pds {
namespace {

TEST(SweepGridTest, FlatAndCoordsRoundTrip) {
  const SweepGrid grid({3, 4, 2});
  EXPECT_EQ(grid.size(), 24u);
  EXPECT_EQ(grid.rank(), 3u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto at = grid.coords(i);
    ASSERT_EQ(at.size(), 3u);
    EXPECT_LT(at[0], 3u);
    EXPECT_LT(at[1], 4u);
    EXPECT_LT(at[2], 2u);
    EXPECT_EQ(grid.flat(at), i);
  }
  // Row-major: the last axis is the fastest.
  EXPECT_EQ(grid.flat({0, 0, 1}), 1u);
  EXPECT_EQ(grid.flat({0, 1, 0}), 2u);
  EXPECT_EQ(grid.flat({1, 0, 0}), 8u);
}

TEST(SweepGridTest, SingleAxis) {
  const SweepGrid grid({5});
  EXPECT_EQ(grid.size(), 5u);
  EXPECT_EQ(grid.coords(3), std::vector<std::size_t>{3});
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t count : {0ul, 1ul, 3ul, 4ul, 64ul, 1000ul}) {
    std::vector<std::atomic<std::uint32_t>> hits(count);
    pool.parallel_for(count, [&](std::uint32_t, std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<std::uint32_t>> by_worker(3);
  pool.parallel_for(200, [&](std::uint32_t worker, std::size_t) {
    ASSERT_LT(worker, 3u);
    by_worker[worker].fetch_add(1, std::memory_order_relaxed);
  });
  std::uint32_t total = 0;
  for (auto& w : by_worker) total += w.load();
  EXPECT_EQ(total, 200u);
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineOnCaller) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::uint32_t worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);  // inline execution: no synchronization needed
  });
  std::vector<std::size_t> expect(10);
  std::iota(expect.begin(), expect.end(), 0u);
  EXPECT_EQ(order, expect);  // and in serial order
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::uint32_t, std::size_t i) {
                          if (i == 37) throw std::runtime_error("cell 37");
                        }),
      std::runtime_error);
  // The pool must survive a failed job and run the next one normally.
  std::atomic<std::uint32_t> done{0};
  pool.parallel_for(50, [&](std::uint32_t, std::size_t) {
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 50u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<std::uint32_t>> hits(6 * 10);
  pool.parallel_for(6, [&](std::uint32_t outer_worker, std::size_t i) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // The nested loop must run inline on this participant, with the same
    // worker id, not deadlock on the already-busy pool.
    pool.parallel_for(10, [&](std::uint32_t inner_worker, std::size_t j) {
      EXPECT_EQ(inner_worker, outer_worker);
      hits[i * 10 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPoolTest, OversubscriptionStress) {
  // Far more workers than cores: the claim/steal protocol must not lose or
  // duplicate indices under heavy contention.
  ThreadPool pool(16);
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<std::uint32_t>> hits(4096);
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(4096, [&](std::uint32_t, std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "round " << round << " index " << i;
    }
    EXPECT_EQ(sum.load(), 4095ull * 4096ull / 2ull);
  }
}

TEST(ThreadPoolTest, ResolveWorkersPrefersExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolve_workers(3), 3u);
  EXPECT_GE(ThreadPool::resolve_workers(0), 1u);
}

TEST(FreeParallelForTest, PlainIndexOverload) {
  std::vector<std::atomic<std::uint32_t>> hits(100);
  parallel_for(100, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(RunSweepTest, ResultsLandInGridOrder) {
  const auto out = run_sweep(20, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(RunSweepTest, GridVariantPassesCoords) {
  const SweepGrid grid({4, 5});
  const auto out =
      run_sweep(grid, [&](const std::vector<std::size_t>& at,
                          std::size_t flat) {
        EXPECT_EQ(grid.flat(at), flat);
        return at[0] * 100 + at[1];
      });
  ASSERT_EQ(out.size(), 20u);
  EXPECT_EQ(out[grid.flat({3, 2})], 302u);
}

// --- determinism contract -------------------------------------------------

// A reduced Figure-1-style panel rendered to a string: real simulations,
// table assembly after the barrier. Byte-compared across worker counts.
std::string render_small_panel() {
  const std::vector<double> rhos{0.80, 0.95};
  const std::vector<SchedulerKind> kinds{SchedulerKind::kWtp,
                                         SchedulerKind::kBpr};
  const SweepRunner runner({rhos.size(), kinds.size(), std::size_t{2}});
  const auto cells =
      runner.run([&](const std::vector<std::size_t>& at, std::size_t) {
        StudyAConfig config;
        config.utilization = rhos[at[0]];
        config.sim_time = 2.0e4;
        config.scheduler = kinds[at[1]];
        config.seed = 1 + at[2];
        return run_study_a(config).ratios;
      });
  std::ostringstream os;
  TablePrinter table({"rho", "WTP 1/2", "WTP 2/3", "WTP 3/4", "BPR 1/2",
                      "BPR 2/3", "BPR 3/4"});
  for (std::size_t r = 0; r < rhos.size(); ++r) {
    std::vector<std::string> row{TablePrinter::num(rhos[r])};
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<double> acc(3, 0.0);
      for (std::size_t s = 0; s < 2; ++s) {
        const auto& ratios = cells[runner.grid().flat({r, k, s})];
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += ratios[i];
      }
      for (const double a : acc) row.push_back(TablePrinter::num(a / 2.0));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  return os.str();
}

TEST(DeterminismTest, ParallelSweepOutputByteIdenticalToSingleWorker) {
  ThreadPool::set_global_workers(1);
  const std::string serial = render_small_panel();
  ThreadPool::set_global_workers(4);
  const std::string parallel = render_small_panel();
  ThreadPool::set_global_workers(0);  // restore auto for later tests
  EXPECT_EQ(serial, parallel);
}

TEST(DeterminismTest, ReplicationsMatchSerialLoop) {
  StudyAConfig config;
  config.sim_time = 2.0e4;
  config.seed = 11;
  const auto parallel = run_study_a_replications(config, 4);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::uint32_t k = 0; k < 4; ++k) {
    StudyAConfig serial = config;
    serial.seed = config.seed + k;
    const auto expect = run_study_a(serial);
    EXPECT_EQ(parallel[k].ratios, expect.ratios) << "seed offset " << k;
    EXPECT_EQ(parallel[k].mean_delays, expect.mean_delays);
    EXPECT_EQ(parallel[k].total_departures, expect.total_departures);
  }
}

}  // namespace
}  // namespace pds
