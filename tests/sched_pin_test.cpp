// Per-scheduler pins: FNV-1a over the exact bits of every departure of
//   * a short Study A run (paper size law, Pareto arrivals) for each of the
//     ten scheduler kinds, and
//   * a Link replay at burst=4 with mixed packet sizes for the ten kinds:
//     WTP, BPR, additive, PAD and HPD take one decision per burst, FCFS,
//     SP, DRR, SCFQ and VC one decision per packet of the burst.
// The golden Study A trace hash pins WTP only; these pins cover every
// decision kernel, including BPR's reading of the head packet's size, so a
// refactor of the packet plane cannot move any scheduler unnoticed. A hash
// change must be an intentional, reviewed break of the determinism contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/study_a.hpp"
#include "sched/factory.hpp"
#include "sched/link.hpp"
#include "test_helpers.hpp"

namespace pds {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

struct PinCase {
  const char* name;
  SchedulerKind kind;
  bool burst_replay;     // false: Study A departures; true: burst=4 replay
  std::uint64_t records;
  std::uint64_t hash;
};

std::string case_name(const testing::TestParamInfo<PinCase>& info) {
  return info.param.name;
}

void PrintTo(const PinCase& pin, std::ostream* os) { *os << pin.name; }

Fnv1a study_a_hash(SchedulerKind kind, std::uint64_t* records) {
  StudyAConfig config;
  config.scheduler = kind;
  config.sim_time = 3.0e4;
  config.seed = 5;
  config.record_departures = true;
  const StudyAResult result = run_study_a(config);
  Fnv1a fnv;
  for (const DepartureRecord& d : result.per_packet) {
    fnv.f64(d.time);
    fnv.u64(d.cls);
    fnv.f64(d.delay);
  }
  *records = result.per_packet.size();
  return fnv;
}

// 600 arrivals in clumps over four classes with sizes drawn from the
// paper's 40/550/1500 B law (a local LCG keeps the script independent of
// the library's generators), replayed through one Link at burst=4.
Fnv1a burst_replay_hash(SchedulerKind kind, std::uint64_t* records) {
  constexpr double kCapacity = 10.0;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const std::uint32_t kSizes[] = {40, 550, 1500};
  std::vector<testutil::ScriptedArrival> script;
  double clock = 0.0;
  for (int i = 0; i < 600; ++i) {
    // Roughly one clump in four opens a gap; the rest arrive together.
    if (next() % 4 == 0) clock += static_cast<double>(next() % 400);
    const auto cls = static_cast<ClassId>(next() % 4);
    const std::uint32_t roll = next() % 10;
    const std::uint32_t bytes = kSizes[roll < 4 ? 0 : (roll < 9 ? 1 : 2)];
    script.push_back({clock, cls, bytes});
  }

  SchedulerConfig config;
  config.sdp = {1.0, 2.0, 4.0, 8.0};
  config.link_capacity = kCapacity;
  config.burst = 4;
  auto sched = make_scheduler(kind, config);
  Simulator sim;
  Fnv1a fnv;
  std::uint64_t n = 0;
  Link link(sim, *sched, kCapacity,
            [&](Packet&& p, SimTime wait, SimTime now) {
              fnv.u64(p.id);
              fnv.u64(p.cls);
              fnv.f64(wait);
              fnv.f64(now);
              ++n;
            });
  link.set_burst(4);
  std::uint64_t id = 0;
  for (const auto& a : script) {
    sim.schedule_at(a.time, [&link, a, id]() {
      Packet p;
      p.id = id;
      p.cls = a.cls;
      p.size_bytes = a.bytes;
      p.created = a.time;
      link.arrive(std::move(p));
    });
    ++id;
  }
  sim.run();
  *records = n;
  return fnv;
}

class SchedulerPins : public testing::TestWithParam<PinCase> {};

TEST_P(SchedulerPins, DeparturesMatchPinnedHash) {
  const PinCase& pin = GetParam();
  std::uint64_t records = 0;
  const Fnv1a fnv = pin.burst_replay ? burst_replay_hash(pin.kind, &records)
                                     : study_a_hash(pin.kind, &records);
  EXPECT_EQ(records, pin.records);
  EXPECT_EQ(fnv.h, pin.hash) << std::hex << "got 0x" << fnv.h;
}

// Captured before the packet-plane refactor; the burst4 pins of FCFS, SP,
// DRR, SCFQ and VC before the three tag schedulers moved onto the class
// backlog. Strict priority and Virtual Clock share a Study A pin: at these
// loads VC's reserved rates (proportional to the SDPs) order the classes
// exactly as strict priority does, so burst4_vc is the pin that tells VC's
// tags apart.
INSTANTIATE_TEST_SUITE_P(
    AllKinds, SchedulerPins,
    testing::Values(
        PinCase{"study_a_fcfs", SchedulerKind::kFcfs, false, 2314,
                0x969676bbc74e9054ULL},
        PinCase{"study_a_sp", SchedulerKind::kStrictPriority, false, 2300,
                0xee2e4ba266e29331ULL},
        PinCase{"study_a_wtp", SchedulerKind::kWtp, false, 2313,
                0x42073ea8a37ce318ULL},
        PinCase{"study_a_bpr", SchedulerKind::kBpr, false, 2309,
                0x49881a2fb1c87fb6ULL},
        PinCase{"study_a_additive", SchedulerKind::kAdditiveWtp, false, 2314,
                0x594fa47bcc9f4659ULL},
        PinCase{"study_a_pad", SchedulerKind::kPad, false, 2311,
                0xa637df0744a6b2e1ULL},
        PinCase{"study_a_hpd", SchedulerKind::kHpd, false, 2313,
                0xd1992f00abd07902ULL},
        PinCase{"study_a_drr", SchedulerKind::kDrr, false, 2306,
                0x04fb9c11eedbeea7ULL},
        PinCase{"study_a_scfq", SchedulerKind::kScfq, false, 2307,
                0xe23236b7adc0c058ULL},
        PinCase{"study_a_vc", SchedulerKind::kVirtualClock, false, 2300,
                0xee2e4ba266e29331ULL},
        PinCase{"burst4_wtp", SchedulerKind::kWtp, true, 600,
                0xfff5c6885af94b49ULL},
        PinCase{"burst4_bpr", SchedulerKind::kBpr, true, 600,
                0xde9eb4db5d9d19d1ULL},
        PinCase{"burst4_additive", SchedulerKind::kAdditiveWtp, true, 600,
                0x10045801fece5fdfULL},
        PinCase{"burst4_pad", SchedulerKind::kPad, true, 600,
                0xd8fd588e1d09fb95ULL},
        PinCase{"burst4_hpd", SchedulerKind::kHpd, true, 600,
                0x8d16a28910f99ec2ULL},
        PinCase{"burst4_fcfs", SchedulerKind::kFcfs, true, 600,
                0xbfd2471f9a07a691ULL},
        PinCase{"burst4_sp", SchedulerKind::kStrictPriority, true, 600,
                0xe707a43fac091ff2ULL},
        PinCase{"burst4_drr", SchedulerKind::kDrr, true, 600,
                0x2175330e1f5af935ULL},
        PinCase{"burst4_scfq", SchedulerKind::kScfq, true, 600,
                0xd4d3fc66bd37bac4ULL},
        PinCase{"burst4_vc", SchedulerKind::kVirtualClock, true, 600,
                0xe52d833d82cb4ef7ULL}),
    case_name);

}  // namespace
}  // namespace pds
