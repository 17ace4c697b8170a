// Tie-break contract of the one class-selection loop
// (ClassBasedScheduler::select_class), driven through dequeue: among
// classes attaining the best priority the highest class index wins, and a
// lone backlogged class wins wherever it sits in the head array. FCFS is
// left out because its tags (arrival counts) never tie.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sched/factory.hpp"

namespace pds {
namespace {

const SchedulerKind kSelectingKinds[] = {
    SchedulerKind::kWtp, SchedulerKind::kAdditiveWtp, SchedulerKind::kPad,
    SchedulerKind::kHpd, SchedulerKind::kBpr,         SchedulerKind::kScfq,
    SchedulerKind::kVirtualClock};

// A scheduler of `kind` over the given SDPs with one packet of `bytes`
// queued at `at` in each class of `backlogged`.
std::unique_ptr<ClassBasedScheduler> backlogged_scheduler(
    SchedulerKind kind, std::vector<double> sdp, double g,
    const std::vector<ClassId>& backlogged, double at, std::uint32_t bytes) {
  SchedulerConfig config;
  config.sdp = std::move(sdp);
  config.link_capacity = 1.0;
  config.hpd_g = g;
  auto sched = make_scheduler(kind, config);
  for (const ClassId c : backlogged) {
    Packet p;
    p.cls = c;
    p.size_bytes = bytes;
    p.arrival = at;
    sched->enqueue(p, at);
  }
  return sched;
}

ClassId next_class(Scheduler& sched, double now) {
  const auto p = sched.dequeue(now);
  EXPECT_TRUE(p.has_value());
  return p ? p->cls : ClassId{0};
}

TEST(ClassSelection, ExactTieGoesToHighestClass) {
  // All backlogged classes share arrival, size and SDP: every priority is
  // numerically identical, and stays so as the ties are served at one
  // instant, so the paper's tie-break (highest class) sets the whole order.
  for (const SchedulerKind kind : kSelectingKinds) {
    for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
      std::vector<ClassId> all(n);
      for (ClassId c = 0; c < n; ++c) all[c] = c;
      auto sched = backlogged_scheduler(kind, std::vector<double>(n, 1.0),
                                        0.875, all, 10.0, 100);
      for (ClassId c = n; c-- > 0;) {
        EXPECT_EQ(next_class(*sched, 20.0), c)
            << to_string(kind) << " n=" << n;
      }
      EXPECT_TRUE(sched->empty());
    }
  }
}

TEST(ClassSelection, SingleBackloggedClassWinsRegardlessOfIndex) {
  for (const SchedulerKind kind : kSelectingKinds) {
    for (std::uint32_t n : {1u, 4u, 7u}) {
      std::vector<double> sdp(n);
      for (ClassId c = 0; c < n; ++c) sdp[c] = 1.0 + c;
      for (ClassId only = 0; only < n; ++only) {
        auto sched = backlogged_scheduler(kind, sdp, 0.5, {only}, 5.0, 200);
        EXPECT_EQ(next_class(*sched, 9.0), only)
            << to_string(kind) << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace pds
