// On/off and ECN-adaptive sources: the burstiness and congestion-control
// substrates Sections 1 and 3 lean on. Also the lifetime rule every event
// chain shares: destroying a source, the metrics ticker or the controller
// ends its chain.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/controller.hpp"
#include "obs/conformance.hpp"
#include "obs/metrics.hpp"
#include "sched/link.hpp"
#include "sched/tag.hpp"
#include "traffic/ecn.hpp"
#include "traffic/onoff.hpp"
#include "traffic/source.hpp"

namespace pds {
namespace {

struct Collected {
  std::vector<Packet> packets;
  PacketHandler handler() {
    return [this](Packet p) { packets.push_back(std::move(p)); };
  }
};

// ---------------------------------------------------------------- on/off

TEST(OnOff, ValidatesConfig) {
  OnOffConfig bad;
  bad.peak_rate = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = OnOffConfig{};
  bad.pareto_alpha = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = OnOffConfig{};
  bad.mean_on = 1.0;  // cannot fit one 500 B packet at peak_rate 1
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(OnOff, MeanRateFormula) {
  OnOffConfig c;
  c.peak_rate = 10.0;
  c.mean_on = 100.0;
  c.mean_off = 300.0;
  EXPECT_DOUBLE_EQ(c.mean_rate(), 2.5);
}

TEST(OnOff, LongRunRateApproachesMeanRate) {
  Simulator sim;
  PacketIdAllocator ids;
  Collected got;
  OnOffConfig c;
  c.cls = 1;
  c.packet_bytes = 100;
  c.peak_rate = 10.0;   // 10 tu per packet while ON
  c.mean_on = 200.0;
  c.mean_off = 200.0;
  c.pareto_alpha = 1.6;
  OnOffSource src(sim, ids, c, Rng(3), got.handler());
  src.start(0.0);
  const double horizon = 2.0e6;
  sim.run_until(horizon);
  src.stop();
  const double bytes =
      static_cast<double>(got.packets.size()) * c.packet_bytes;
  // Heavy-tailed periods converge slowly; accept a wide band around the
  // nominal half-peak rate.
  EXPECT_NEAR(bytes / horizon, c.mean_rate(), 0.5 * c.mean_rate());
  EXPECT_GT(src.bursts_started(), 100u);
  for (const auto& p : got.packets) EXPECT_EQ(p.cls, 1u);
}

TEST(OnOff, PacketsWithinBurstAreBackToBackAtPeakRate) {
  Simulator sim;
  PacketIdAllocator ids;
  Collected got;
  OnOffConfig c;
  c.packet_bytes = 100;
  c.peak_rate = 10.0;
  c.mean_on = 500.0;
  c.mean_off = 5000.0;
  OnOffSource src(sim, ids, c, Rng(9), got.handler());
  src.start(0.0);
  sim.run_until(1.0e5);
  src.stop();
  ASSERT_GT(got.packets.size(), 10u);
  // Within a burst, consecutive emissions are exactly one serialization
  // time (10 tu) apart; across bursts the gap is much larger.
  int in_burst_gaps = 0;
  for (std::size_t i = 1; i < got.packets.size(); ++i) {
    const double gap = got.packets[i].created - got.packets[i - 1].created;
    if (gap < 100.0) {
      EXPECT_NEAR(gap, 10.0, 1e-9);
      ++in_burst_gaps;
    }
  }
  EXPECT_GT(in_burst_gaps, 0);
}

TEST(OnOff, StopSilencesTheSource) {
  Simulator sim;
  PacketIdAllocator ids;
  Collected got;
  OnOffConfig c;
  OnOffSource src(sim, ids, c, Rng(5), got.handler());
  src.start(0.0);
  sim.run_until(5000.0);
  src.stop();
  const auto emitted = src.packets_emitted();
  sim.run_until(50000.0);
  EXPECT_EQ(src.packets_emitted(), emitted);
}

// ------------------------------------------------------------------- ECN

TEST(EcnMarker, MarksAtThreshold) {
  FcfsScheduler sched(1);
  const EcnMarker marker(2);
  Packet p;
  p.cls = 0;
  p.size_bytes = 100;
  EXPECT_FALSE(marker.should_mark(sched));
  sched.enqueue(p, 0.0);
  EXPECT_FALSE(marker.should_mark(sched));
  sched.enqueue(p, 0.0);
  EXPECT_TRUE(marker.should_mark(sched));
  EXPECT_THROW(EcnMarker(0), std::invalid_argument);
}

TEST(EcnSource, AimdRateDynamics) {
  Simulator sim;
  PacketIdAllocator ids;
  Collected got;
  EcnSourceConfig c;
  c.initial_rate = 8.0;
  c.additive_increase = 1.0;
  c.multiplicative_decrease = 0.5;
  c.min_rate = 1.0;
  EcnAdaptiveSource src(sim, ids, c, Rng(1), got.handler());
  src.on_feedback(false);
  EXPECT_DOUBLE_EQ(src.current_rate(), 9.0);
  src.on_feedback(true);
  EXPECT_DOUBLE_EQ(src.current_rate(), 4.5);
  EXPECT_EQ(src.marks_received(), 1u);
  // Floor is respected.
  for (int i = 0; i < 10; ++i) src.on_feedback(true);
  EXPECT_DOUBLE_EQ(src.current_rate(), 1.0);
}

TEST(EcnSource, ValidatesConfig) {
  EcnSourceConfig c;
  c.multiplicative_decrease = 1.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = EcnSourceConfig{};
  c.initial_rate = 0.01;  // below min_rate
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

// Closed loop: adaptive sources + marking link reach stable high
// utilization with a bounded queue and no losses — Section 3's regime.
TEST(EcnSource, ClosedLoopStabilizesNearCapacity) {
  Simulator sim;
  PacketIdAllocator ids;
  FcfsScheduler sched(1);
  const double capacity = 39.375;
  const EcnMarker marker(30);
  std::vector<std::unique_ptr<EcnAdaptiveSource>> sources;

  std::uint64_t departed = 0;
  std::uint64_t max_backlog = 0;
  Link link(sim, sched, capacity,
            [&](Packet&&, SimTime, SimTime) { ++departed; });

  // Feedback path: the mark decision is made against the instantaneous
  // queue at enqueue time and applied immediately (a zero-RTT echo).
  Rng master(17);
  for (int s = 0; s < 4; ++s) {
    EcnSourceConfig c;
    c.packet_bytes = 441;
    c.initial_rate = 2.0;
    c.min_rate = 0.5;
    c.additive_increase = 0.2;
    sources.push_back(std::make_unique<EcnAdaptiveSource>(
        sim, ids, c, master.split(), [&, s](Packet p) {
          const bool mark = marker.should_mark(sched);
          std::uint64_t backlog = sched.backlog_packets(0);
          max_backlog = std::max(max_backlog, backlog);
          sources[static_cast<std::size_t>(s)]->on_feedback(mark);
          link.arrive(std::move(p));
        }));
    sources.back()->start(0.0);
  }

  const double horizon = 2.0e5;
  sim.run_until(horizon);
  for (auto& s : sources) s->stop();

  const double utilization = link.busy_time() / horizon;
  EXPECT_GT(utilization, 0.75) << "sources failed to fill the link";
  EXPECT_LE(utilization, 1.0 + 1e-9);
  // Queue stays near the marking threshold, far from unbounded growth.
  EXPECT_LT(max_backlog, 300u);
  EXPECT_GT(departed, 1000u);
}

// ------------------------------------------- every chain stops on destroy

// Counts the firings of one event chain by its profiling label.
class LabelCounter final : public SimMonitor {
 public:
  explicit LabelCounter(std::string label) : label_(std::move(label)) {}
  void on_event_begin(SimTime, const char* label,
                      std::size_t) noexcept override {
    if (label != nullptr && label_ == label) ++count_;
  }
  void on_event_end(SimTime, const char*) noexcept override {}
  int count() const noexcept { return count_; }

 private:
  std::string label_;
  int count_ = 0;
};

// What a chain's owner may need. `effects` counts what its steps visibly
// did: packets handed to the sink, metrics snapshots taken. The idle link
// and the monitor back the controller.
struct ChainRig {
  Simulator sim;
  PacketIdAllocator ids;
  std::uint64_t effects = 0;
  std::vector<double> sdp{1.0, 2.0};
  FcfsScheduler sched{2};
  Link link{sim, sched, 100.0, [](Packet&&, SimTime, SimTime) {}};
  ConformanceMonitor monitor{sdp, ConformanceOptions{1.0}};
  MetricsRegistry registry;
  std::string metrics_path = testing::TempDir() + "chain_cancel.csv";

  ~ChainRig() { std::remove(metrics_path.c_str()); }
  PacketHandler sink() {
    return [this](Packet) { ++effects; };
  }
};

struct ChainCase {
  const char* name;
  const char* label;
  // Builds the chain's owner on `rig` and starts its chain, which fires
  // about once per time unit from t = 0 or t = 1.
  std::function<std::shared_ptr<void>(ChainRig&)> start;
};

class ChainCancel : public testing::TestWithParam<ChainCase> {};

// Starts the chain, lets it fire a few times, destroys its owner while the
// next firing is pending, and runs the simulator dry: the pending firing
// pops but runs nothing and rearms nothing.
TEST_P(ChainCancel, DestroyingTheOwnerEndsTheChain) {
  ChainRig rig;
  LabelCounter fired(GetParam().label);
  rig.sim.set_monitor(&fired);
  std::shared_ptr<void> owner = GetParam().start(rig);
  rig.sim.run_until(5.5);
  ASSERT_GE(fired.count(), 3);
  ASSERT_FALSE(rig.sim.empty());
  const int fired_before = fired.count();
  const std::uint64_t effects_before = rig.effects;
  owner.reset();
  rig.sim.run();
  EXPECT_LE(fired.count(), fired_before + 1);
  EXPECT_EQ(rig.effects, effects_before);
  EXPECT_TRUE(rig.sim.empty());
}

template <typename T>
std::shared_ptr<void> started(std::shared_ptr<T> source) {
  source->start(0.0);
  return source;
}

const ChainCase kChains[] = {
    {"renewal", "traffic.source",
     [](ChainRig& r) {
       return started(std::make_shared<RenewalSource>(
           r.sim, r.ids, 0, constant_gaps(1.0), fixed_size(100), Rng(1),
           r.sink()));
     }},
    {"class_mix", "traffic.source",
     [](ChainRig& r) {
       return started(std::make_shared<ClassMixSource>(
           r.sim, r.ids, std::vector<double>{0.5, 0.5}, constant_gaps(1.0),
           fixed_size(100), Rng(2), r.sink()));
     }},
    {"cbr", "traffic.cbr",
     [](ChainRig& r) {
       return started(std::make_shared<CbrFlowSource>(
           r.sim, r.ids, 0, 7, 100, 100, 1.0, r.sink()));
     }},
    {"onoff", "traffic.onoff",
     [](ChainRig& r) {
       OnOffConfig c;
       c.packet_bytes = 100;
       c.peak_rate = 100.0;  // one packet per time unit while ON
       c.mean_on = 4.0;
       c.mean_off = 0.5;
       c.pareto_off = false;
       return started(
           std::make_shared<OnOffSource>(r.sim, r.ids, c, Rng(3), r.sink()));
     }},
    {"ecn", "traffic.ecn",
     [](ChainRig& r) {
       EcnSourceConfig c;
       c.packet_bytes = 100;
       c.initial_rate = 100.0;  // mean gap of one time unit
       return started(std::make_shared<EcnAdaptiveSource>(r.sim, r.ids, c,
                                                          Rng(4), r.sink()));
     }},
    {"metrics_ticker", "dsim.periodic",
     [](ChainRig& r) -> std::shared_ptr<void> {
       return std::make_shared<MetricsSnapshotWriter>(
           r.sim, r.registry, r.metrics_path, 1.0,
           [&r](SimTime) { ++r.effects; });
     }},
    {"controller", "ctrl.tick",
     [](ChainRig& r) -> std::shared_ptr<void> {
       ControllerConfig c;
       c.mode = ControllerMode::kWeights;
       c.period = 1.0;
       auto controller = std::make_shared<Controller>(r.sim, r.link,
                                                      r.monitor, r.sdp, c);
       controller->arm(100.0);
       return controller;
     }},
};

void PrintTo(const ChainCase& chain, std::ostream* os) { *os << chain.name; }

std::string chain_name(const testing::TestParamInfo<ChainCase>& param) {
  return param.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllChains, ChainCancel, testing::ValuesIn(kChains),
                         chain_name);

}  // namespace
}  // namespace pds
