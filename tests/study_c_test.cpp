// Study C (finite buffer + droppers): coupled delay and loss
// differentiation, the paper's stated future work.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/study_c.hpp"

namespace pds {
namespace {

StudyCConfig overload_config() {
  StudyCConfig c;
  c.offered_load = 1.3;
  c.sim_time = 1.5e5;
  c.buffer_packets = 100;
  c.seed = 5;
  return c;
}

TEST(StudyC, ShedsExactlyTheExcessLoad) {
  const auto r = run_study_c(overload_config());
  // 30% overload: aggregate loss ~ 0.3/1.3 = 0.23; the link stays pinned
  // near full utilization.
  EXPECT_NEAR(r.aggregate_loss_rate, 0.3 / 1.3, 0.05);
  EXPECT_GT(r.measured_utilization, 0.95);
  EXPECT_GT(r.total_drops, 1000u);
}

TEST(StudyC, PlrPinsLossRatiosToLdps) {
  const auto r = run_study_c(overload_config());
  ASSERT_EQ(r.loss_ratios.size(), 3u);
  for (const double ratio : r.loss_ratios) {
    EXPECT_NEAR(ratio, 2.0, 0.2);  // LDPs 8,4,2,1
  }
}

TEST(StudyC, WtpStillDifferentiatesSurvivorDelays) {
  const auto r = run_study_c(overload_config());
  ASSERT_EQ(r.delay_ratios.size(), 3u);
  for (const double ratio : r.delay_ratios) {
    EXPECT_GT(ratio, 1.4);  // proportional-ish even while dropping
    EXPECT_LT(ratio, 2.8);
  }
}

TEST(StudyC, DropTailFollowsLoadNotLdps) {
  auto c = overload_config();
  c.policy = DropPolicy::kDropIncoming;
  c.ldp.clear();  // unused by drop-tail
  const auto r = run_study_c(c);
  // Equal class loads + classless drops: loss rates roughly equal.
  for (const double ratio : r.loss_ratios) {
    EXPECT_NEAR(ratio, 1.0, 0.25);
  }
}

TEST(StudyC, SlidingWindowTracksLdpsToo) {
  auto c = overload_config();
  c.plr_window = 2000;
  const auto r = run_study_c(c);
  for (const double ratio : r.loss_ratios) {
    EXPECT_NEAR(ratio, 2.0, 0.3);
  }
}

TEST(StudyC, UnevenLoadsStillHitLossTargets) {
  auto c = overload_config();
  c.load_fractions = {0.1, 0.2, 0.3, 0.4};  // heavy high classes
  const auto r = run_study_c(c);
  for (const double ratio : r.loss_ratios) {
    EXPECT_NEAR(ratio, 2.0, 0.35);
  }
}

TEST(StudyC, UnderloadProducesNoLoss) {
  auto c = overload_config();
  c.offered_load = 0.6;
  const auto r = run_study_c(c);
  EXPECT_EQ(r.total_drops, 0u);
  EXPECT_DOUBLE_EQ(r.aggregate_loss_rate, 0.0);
}

TEST(StudyC, DeterministicPerSeed) {
  const auto a = run_study_c(overload_config());
  const auto b = run_study_c(overload_config());
  EXPECT_EQ(a.total_drops, b.total_drops);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
}

TEST(StudyC, ValidatesConfig) {
  auto c = overload_config();
  c.offered_load = 0.0;
  EXPECT_THROW(run_study_c(c), std::invalid_argument);
  c = overload_config();
  c.ldp = {1.0};  // size mismatch under kPlr
  EXPECT_THROW(run_study_c(c), std::invalid_argument);
  c = overload_config();
  c.buffer_packets = 0;
  EXPECT_THROW(run_study_c(c), std::invalid_argument);
}

TEST(StudyC, RejectsPlrPushOutOnTagSchedulers) {
  // A tag scheduler cannot drop a queued packet, so PLR push-out must fail
  // validation, naming the scheduler, instead of at the first overflow.
  for (const auto kind : {SchedulerKind::kFcfs, SchedulerKind::kScfq,
                          SchedulerKind::kVirtualClock}) {
    auto c = overload_config();
    c.scheduler = kind;
    try {
      c.validate();
      ADD_FAILURE() << to_string(kind) << " accepted PLR push-out";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got " + to_string(kind)),
                std::string::npos)
          << e.what();
    }
    c.policy = DropPolicy::kDropIncoming;
    EXPECT_NO_THROW(c.validate()) << to_string(kind);
  }
}

// Pins: FNV-1a over the exact bits of a short run's loss rates, survivor
// delays, counters and utilization under each drop policy. These cover the
// PLR push-out path (victim choice, tail pop, re-admission) that no other
// pin reaches; a hash change must be an intentional, reviewed break of the
// determinism contract.
struct StudyCPin {
  const char* name;
  DropPolicy policy;
  std::uint64_t plr_window;
  std::uint64_t hash;
};

std::string pin_name(const testing::TestParamInfo<StudyCPin>& info) {
  return info.param.name;
}

void PrintTo(const StudyCPin& pin, std::ostream* os) { *os << pin.name; }

std::uint64_t study_c_hash(const StudyCResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto bytes = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  for (const double v : r.loss_rates) bytes(&v, sizeof v);
  for (const double v : r.mean_delays) bytes(&v, sizeof v);
  bytes(&r.total_arrivals, sizeof r.total_arrivals);
  bytes(&r.total_drops, sizeof r.total_drops);
  bytes(&r.measured_utilization, sizeof r.measured_utilization);
  return h;
}

class StudyCPins : public testing::TestWithParam<StudyCPin> {};

TEST_P(StudyCPins, ResultMatchesPinnedHash) {
  const StudyCPin& pin = GetParam();
  auto c = overload_config();
  c.sim_time = 3.0e4;
  c.policy = pin.policy;
  c.plr_window = pin.plr_window;
  if (pin.policy == DropPolicy::kDropIncoming) c.ldp.clear();
  const auto r = run_study_c(c);
  EXPECT_GT(r.total_drops, 0u);
  const std::uint64_t h = study_c_hash(r);
  EXPECT_EQ(h, pin.hash) << std::hex << "got 0x" << h;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StudyCPins,
    testing::Values(
        StudyCPin{"drop_tail", DropPolicy::kDropIncoming, 0,
                  0xa549213f206a87adULL},
        StudyCPin{"plr_inf", DropPolicy::kPlr, 0, 0x6c07561bfd347f83ULL},
        StudyCPin{"plr_2000", DropPolicy::kPlr, 2000, 0xc34cbc5d55ad918aULL}),
    pin_name);

}  // namespace
}  // namespace pds
