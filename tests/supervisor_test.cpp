// Run supervision: per-cell failure isolation, the watchdog, and the
// determinism-under-faults differential (--jobs=1 vs --jobs=N).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/study_a.hpp"
#include "exp/supervisor.hpp"
#include "exp/thread_pool.hpp"

namespace pds {
namespace {

// ------------------------------------------------------- failure isolation

TEST(SupervisedSweep, ThrowingCellNeverKillsSiblings) {
  const auto result = run_supervised_sweep(
      8, SupervisorOptions{}, [](std::size_t i) -> int {
        if (i == 3) throw std::runtime_error("cell 3 is broken");
        return static_cast<int>(10 * i);
      });
  ASSERT_EQ(result.cells.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(result.cells[i], static_cast<int>(10 * i));
  }
  EXPECT_EQ(result.cells[3], 0);  // default-constructed
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].index, 3u);
  EXPECT_EQ(result.failures[0].error, "cell 3 is broken");
  EXPECT_EQ(result.failures[0].attempts, 1);
}

TEST(SupervisedSweep, FailuresAreSortedByIndex) {
  const auto result = run_supervised_sweep(
      16, SupervisorOptions{}, [](std::size_t i) -> int {
        if (i % 3 == 0) throw std::invalid_argument("bad");
        return 1;
      });
  ASSERT_EQ(result.failures.size(), 6u);
  for (std::size_t k = 0; k + 1 < result.failures.size(); ++k) {
    EXPECT_LT(result.failures[k].index, result.failures[k + 1].index);
  }
}

TEST(SupervisedSweep, NonStdExceptionsAreRecordedToo) {
  const auto result = run_supervised_sweep(
      2, SupervisorOptions{}, [](std::size_t i) -> int {
        if (i == 0) throw 42;  // NOLINT: exercising the catch-all path
        return 1;
      });
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].error, "unknown exception");
}

// ----------------------------------------------------------------- watchdog

TEST(Watchdog, CatchesASeededLivelockAndSnapshotsTheWreck) {
  // A self-perpetuating zero-delay event: the classic livelock. The event
  // budget must kill it deterministically and the error must carry the
  // diagnostic snapshot.
  Simulator sim;
  std::function<void()> spin = [&] { sim.schedule_in(0.0, [&] { spin(); }); };
  sim.schedule_at(1.0, [&] { spin(); });
  Watchdog dog(sim, WatchdogLimits{.max_events = 1000},
               [] { return std::string("stuck-component: spinner"); });
  try {
    dog.run_until(100.0);
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    EXPECT_TRUE(dog.tripped());
    EXPECT_EQ(e.executed, 1000u);
    EXPECT_DOUBLE_EQ(e.now, 1.0);  // the clock never advanced: livelock
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog: event budget exceeded"),
              std::string::npos);
    EXPECT_NE(what.find("now=1"), std::string::npos);
    EXPECT_NE(what.find("executed=1000"), std::string::npos);
    EXPECT_NE(what.find("pending="), std::string::npos);
    EXPECT_NE(what.find("stuck-component: spinner"), std::string::npos);
  }
  // The budget is deterministic: a re-run trips at exactly the same point.
  Simulator sim2;
  std::function<void()> spin2 = [&] {
    sim2.schedule_in(0.0, [&] { spin2(); });
  };
  sim2.schedule_at(1.0, [&] { spin2(); });
  Watchdog dog2(sim2, WatchdogLimits{.max_events = 1000});
  try {
    dog2.run_until(100.0);
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    EXPECT_EQ(e.executed, 1000u);
    EXPECT_DOUBLE_EQ(e.now, 1.0);
  }
}

TEST(Watchdog, WallClockDeadlineKillsARealHang) {
  Simulator sim;
  std::function<void()> spin = [&] { sim.schedule_in(0.0, [&] { spin(); }); };
  sim.schedule_at(0.0, [&] { spin(); });
  Watchdog dog(sim, WatchdogLimits{.max_wall_seconds = 0.05});
  EXPECT_THROW(dog.run_until(1.0), WatchdogError);
  EXPECT_TRUE(dog.tripped());
}

TEST(Watchdog, DisabledLimitsRunToCompletion) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  Watchdog dog(sim, WatchdogLimits{});
  dog.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(dog.tripped());
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Watchdog, GenerousBudgetDoesNotPerturbTheRun) {
  // The same event chain with and without an (unreached) budget produces
  // the same clock and event count.
  auto run_chain = [](bool budgeted) {
    Simulator sim;
    std::uint64_t count = 0;
    std::function<void()> step = [&] {
      if (++count < 500) sim.schedule_in(1.0, [&] { step(); });
    };
    sim.schedule_at(0.0, [&] { step(); });
    Watchdog dog(sim, budgeted ? WatchdogLimits{.max_events = 1000000}
                               : WatchdogLimits{});
    dog.run_until(1e6);
    return std::pair<double, std::uint64_t>(sim.now(), sim.executed_events());
  };
  EXPECT_EQ(run_chain(true), run_chain(false));
}

TEST(Watchdog, StudyARunReportsPerClassBacklogsOnTrip) {
  StudyAConfig config;
  config.sim_time = 1.0e5;
  config.max_events = 5000;  // far too few to finish: guaranteed trip
  try {
    run_study_a(config);
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog: event budget exceeded"),
              std::string::npos);
    EXPECT_NE(what.find("class 0 backlog="), std::string::npos);
    EXPECT_NE(what.find("class 3 backlog="), std::string::npos);
  }
}

// ------------------------------------------------------------- differential

// Study A cells under a shared fault plan, reduced to a printable report —
// the library-level analogue of a bench's stdout.
std::string faulted_sweep_report() {
  const char* plan =
      "seed 11\n"
      "degrade link at=8000 for=2000 factor=0.5\n"
      "stall link at=15000 for=150\n"
      "down link at=22000 for=600 mode=hold\n";
  const std::vector<SchedulerKind> kinds{SchedulerKind::kWtp,
                                         SchedulerKind::kBpr};
  const auto sup = run_supervised_sweep(
      kinds.size() * 2, SupervisorOptions{}, [&](std::size_t i) {
        StudyAConfig config;
        config.scheduler = kinds[i % kinds.size()];
        config.seed = 1 + i / kinds.size();
        config.sim_time = 3.0e4;
        config.fault_plan = plan;
        config.max_events = 100000000;
        const auto r = run_study_a(config);
        std::ostringstream os;
        os << r.total_departures << " " << r.fault_episodes << " "
           << r.fault_drops;
        for (const double d : r.mean_delays) os << " " << d;
        return os.str();
      });
  std::ostringstream out;
  for (const auto& cell : sup.cells) out << cell << "\n";
  out << sup.failures.size() << " failures\n";
  return out.str();
}

TEST(Determinism, FaultedSweepIsByteIdenticalAcrossWorkerCounts) {
  ThreadPool::set_global_workers(1);
  const auto serial = faulted_sweep_report();
  ThreadPool::set_global_workers(4);
  const auto parallel = faulted_sweep_report();
  ThreadPool::set_global_workers(0);  // restore auto for other suites
  EXPECT_EQ(serial, parallel);
  // Sanity: the plan actually ran (3 episodes per cell, no failures).
  EXPECT_NE(serial.find(" 3 0"), std::string::npos);
  EXPECT_NE(serial.find("0 failures"), std::string::npos);
}

}  // namespace
}  // namespace pds
