#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsim/simulator.hpp"
#include "rng/rng.hpp"

namespace pds {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RejectsNullAction) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(1.0, Simulator::Action{}),
               std::invalid_argument);
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // clock reaches the horizon
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EventExactlyAtHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilCanResume) {
  Simulator sim;
  std::vector<double> times;
  for (double t : {1.0, 4.0, 9.0}) {
    sim.schedule_at(t, [&, t] { times.push_back(t); });
  }
  sim.run_until(2.0);
  EXPECT_EQ(times.size(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(times.size(), 3u);
}

TEST(Simulator, StopExitsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  // A subsequent run resumes cleanly.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, EventsCanScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_in(0.0, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StopDuringRunUntilDoesNotSkipPendingEvents) {
  // Regression: drain used to advance the clock to the horizon even when
  // stop() ended the run early, turning still-pending pre-horizon events
  // into "past" events and making the next run throw.
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.stop();
  });
  sim.schedule_at(3.0, [&] { times.push_back(sim.now()); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);  // clock stays at the last event
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_NO_THROW(sim.run_until(10.0));
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, ScheduleAtNowDuringHorizonEventFiresFifoInSameRun) {
  // The documented FIFO-at-now guarantee, at the hardest spot: an event
  // exactly at the run_until horizon scheduling more work at now().
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] {
    order.push_back(1);
    sim.schedule_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, DestructionReleasesPendingCapturesWithoutRunningThem) {
  // Pending events own their captures. Destroying the simulator must
  // destroy each one exactly once, including those that sit in slots a
  // fired event vacated, and must run none of them. The captures cover
  // the three ways a SimEvent stores a callable: inline with a move
  // constructor, inline relocated by memcpy, and on the heap.
  auto token = std::make_shared<int>(7);
  int fired = 0;
  {
    Simulator sim;
    for (int i = 0; i < 100; ++i) {
      sim.schedule_at(i, [token, &fired] { ++fired; });
    }
    sim.run_until(49.5);
    ASSERT_EQ(fired, 50);
    ASSERT_EQ(token.use_count(), 1 + 50);
    // 50 of these land in the vacated slots, the rest grow the pool.
    for (int i = 0; i < 120; ++i) {
      const SimTime t = 100.0 + i;
      if (i % 3 == 0) {
        sim.schedule_at(t, [token, &fired] { ++fired; });
      } else if (i % 3 == 1) {
        sim.schedule_at(t, SimEvent(SimEvent::TrustedRelocation{},
                                    [token, &fired] { ++fired; }));
      } else {
        const std::array<double, 8> ballast{};  // too big to store inline
        sim.schedule_at(t, [token, &fired, ballast] {
          fired += static_cast<int>(ballast[0]) + 1;
        });
      }
    }
    EXPECT_EQ(sim.pending_events(), 170u);
    EXPECT_EQ(token.use_count(), 1 + 170);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(fired, 50);
}

TEST(Simulator, AnActionMayGrowThePendingSetWhileItRuns) {
  // One action schedules 5,000 events, which regrows the kernel's event
  // storage several times while the action is still running. Its own
  // captures must survive that, and every event must fire in (time, seq)
  // order: pushed in descending time, each new event sifts to the front,
  // and each time value is used twice to check FIFO ties.
  Simulator sim;
  std::vector<int> order;
  auto token = std::make_shared<int>(42);
  int read_after = 0;
  sim.schedule_at(1.0, [&sim, &order, &read_after, token] {
    for (int i = 0; i < 5000; ++i) {
      sim.schedule_at(2.0 + (4999 - i) / 2, [&order, i] {
        order.push_back(i);
      });
    }
    read_after = *token;
  });
  sim.run();
  EXPECT_EQ(read_after, 42);
  ASSERT_EQ(order.size(), 5000u);
  std::vector<int> expected;
  for (int pair = 0; pair < 2500; ++pair) {
    expected.push_back(4998 - 2 * pair);
    expected.push_back(4999 - 2 * pair);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, RepeatedDelaysAndAbsoluteTimesFireInTimeThenSeqOrder) {
  // 48 chains keep the pending set above the delay lanes' gate. Each
  // firing schedules one event: 60% schedule_in at one of three repeated
  // delays (those ride lanes), 25% schedule_at at the time one of them
  // gives (those go to the heap and tie with lane events), 15%
  // schedule_in at a delay that rarely repeats. Every event knows its
  // sequence number (the schedule calls before it): the firings must come
  // out sorted by (time, seq), each at the time it was scheduled for.
  struct Harness {
    Simulator sim;
    Rng rng{5};
    std::uint64_t scheduled = 0;
    std::vector<std::pair<SimTime, std::uint64_t>> fired;
    std::vector<SimTime> late;  // firings away from their scheduled time

    void add(SimTime delay, bool absolute) {
      const std::uint64_t seq = scheduled++;
      const SimTime due = sim.now() + delay;
      const auto fire = [this, seq, due] {
        if (sim.now() != due) late.push_back(sim.now());
        fired.emplace_back(sim.now(), seq);
        if (fired.size() < 20000) rearm();
      };
      if (absolute) {
        sim.schedule_at(due, fire);
      } else {
        sim.schedule_in(delay, fire);
      }
    }
    void rearm() {
      constexpr std::array<SimTime, 3> kRepeated = {1.0, 1.5, 2.25};
      const auto style = rng.uniform_index(20);
      const SimTime repeated = kRepeated[rng.uniform_index(3)];
      if (style < 12) {
        add(repeated, false);
      } else if (style < 17) {
        add(repeated, true);
      } else {
        add(0.25 * static_cast<double>(1 + rng.uniform_index(64)), false);
      }
    }
  };
  Harness h;
  for (int chain = 0; chain < 48; ++chain) h.rearm();
  h.sim.run();
  EXPECT_EQ(h.fired.size(), h.scheduled);
  EXPECT_GE(h.fired.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(h.fired.begin(), h.fired.end()));
  EXPECT_TRUE(h.late.empty());
}

namespace {

class RecordingMonitor final : public SimMonitor {
 public:
  void on_event_begin(SimTime, const char* label,
                      std::size_t pending) noexcept override {
    ++begins_;
    max_pending_ = std::max(max_pending_, pending);
    if (label != nullptr) labels_.push_back(label);
  }
  void on_event_end(SimTime, const char*) noexcept override { ++ends_; }

  int begins() const noexcept { return begins_; }
  int ends() const noexcept { return ends_; }
  std::size_t max_pending() const noexcept { return max_pending_; }
  const std::vector<std::string>& labels() const noexcept { return labels_; }

 private:
  int begins_ = 0;
  int ends_ = 0;
  std::size_t max_pending_ = 0;
  std::vector<std::string> labels_;
};

}  // namespace

TEST(Simulator, MonitorSeesEveryEventWithItsLabel) {
  Simulator sim;
  RecordingMonitor monitor;
  sim.set_monitor(&monitor);
  sim.schedule_at(1.0, [] {}, "alpha");
  sim.schedule_at(2.0, [] {});  // unlabeled
  sim.schedule_at(3.0, [] {}, "beta");
  sim.run();
  EXPECT_EQ(monitor.begins(), 3);
  EXPECT_EQ(monitor.ends(), 3);
  EXPECT_EQ(monitor.max_pending(), 2u);  // two still queued at first event
  EXPECT_EQ(monitor.labels(), (std::vector<std::string>{"alpha", "beta"}));
  sim.set_monitor(nullptr);
  EXPECT_EQ(sim.monitor(), nullptr);
}

// A chain owner: its step records each firing time and returns the next
// of `delays`, ending the chain once they run out; it stops its own chain
// at firing number `stop_at` (0 = never).
struct Recorder {
  Recorder(Simulator& sim, std::vector<SimTime> d)
      : delays(std::move(d)), process(sim, "test.chain", this) {}

  std::optional<SimTime> step(SimTime now) {
    times.push_back(now);
    if (times.size() == stop_at) process.stop();
    if (times.size() > delays.size()) return std::nullopt;
    return delays[times.size() - 1];
  }

  std::vector<SimTime> delays;
  std::vector<SimTime> times;
  std::size_t stop_at = 0;
  Process<&Recorder::step> process;
};

TEST(Process, FiresAtStartAndAfterEachReturnedDelay) {
  Simulator sim;
  Recorder chain(sim, {3.0, 3.0, 1.5, 1.5, 1.5});
  chain.process.start(2.0);
  sim.run_until(11.0);
  EXPECT_EQ(chain.times, (std::vector<SimTime>{2.0, 5.0, 8.0, 9.5, 11.0}));
}

TEST(Process, NulloptEndsTheChain) {
  Simulator sim;
  Recorder chain(sim, {1.0, 1.0, 1.0});
  chain.process.start(0.0);
  sim.run();
  EXPECT_EQ(chain.times.size(), 4u);
  EXPECT_TRUE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Process, StopInsideTheStepEndsTheChain) {
  Simulator sim;
  Recorder chain(sim, std::vector<SimTime>(100, 1.0));
  chain.stop_at = 3;
  chain.process.start(0.0);
  sim.run_until(100.0);
  EXPECT_EQ(chain.times.size(), 3u);
  EXPECT_EQ(sim.executed_events(), 3u);  // no dead firing was scheduled
}

TEST(Process, DestructionStops) {
  Simulator sim;
  auto chain =
      std::make_unique<Recorder>(sim, std::vector<SimTime>(100, 1.0));
  chain->process.start(0.0);
  sim.run_until(2.0);
  EXPECT_EQ(chain->times.size(), 3u);  // 0, 1, 2
  chain.reset();
  sim.run_until(50.0);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.executed_events(), 4u);  // the pending firing ran nothing
}

TEST(Process, LabelsEveryFiring) {
  Simulator sim;
  RecordingMonitor monitor;
  sim.set_monitor(&monitor);
  Recorder chain(sim, {1.0});
  chain.process.start(0.0);
  sim.run();
  EXPECT_EQ(monitor.labels(),
            (std::vector<std::string>{"test.chain", "test.chain"}));
}

TEST(Process, RejectsNegativeDelayAndSecondStart) {
  Simulator sim;
  Recorder negative(sim, {-1.0});
  negative.process.start(0.0);
  EXPECT_THROW(sim.run(), std::invalid_argument);
  Recorder twice(sim, {1.0});
  twice.process.start(1.0);
  EXPECT_THROW(twice.process.start(2.0), std::invalid_argument);
}

}  // namespace
}  // namespace pds
