#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/trace_io.hpp"
#include "sched/link.hpp"
#include "sched/tag.hpp"

namespace pds {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

const std::vector<ArrivalRecord> kTrace{
    {0.0, 0, 40}, {1.5, 2, 550}, {1.5, 1, 1500}, {9.25, 0, 550}};

TEST(TraceIo, RoundTripsExactly) {
  const auto path = temp_path("pds_trace_roundtrip.csv");
  save_trace(path, kTrace);
  const auto loaded = load_trace(path, 4);
  ASSERT_EQ(loaded.size(), kTrace.size());
  for (std::size_t i = 0; i < kTrace.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].time, kTrace[i].time);
    EXPECT_EQ(loaded[i].cls, kTrace[i].cls);
    EXPECT_EQ(loaded[i].size_bytes, kTrace[i].size_bytes);
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RoundTripPreservesFullDoublePrecision) {
  const auto path = temp_path("pds_trace_precision.csv");
  const std::vector<ArrivalRecord> trace{{1.0 / 3.0, 0, 100}};
  save_trace(path, trace);
  const auto loaded = load_trace(path);
  EXPECT_DOUBLE_EQ(loaded[0].time, 1.0 / 3.0);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile) {
  EXPECT_THROW(load_trace("/nonexistent/file.csv"), std::runtime_error);
}

TEST(TraceIo, RejectsBadHeader) {
  const auto path = temp_path("pds_trace_badheader.csv");
  std::ofstream(path) << "t,c,b\n0,0,100\n";
  EXPECT_THROW(load_trace(path), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMalformedRow) {
  const auto path = temp_path("pds_trace_badrow.csv");
  std::ofstream(path) << "time,class,bytes\n0.0;0;100\n";
  EXPECT_THROW(load_trace(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsUnorderedOrInvalidRecords) {
  const auto path = temp_path("pds_trace_unordered.csv");
  std::ofstream(path) << "time,class,bytes\n5.0,0,100\n1.0,0,100\n";
  EXPECT_THROW(load_trace(path), std::invalid_argument);
  std::remove(path.c_str());

  const auto path2 = temp_path("pds_trace_badclass.csv");
  std::ofstream(path2) << "time,class,bytes\n0.0,7,100\n";
  EXPECT_THROW(load_trace(path2, 4), std::invalid_argument);
  EXPECT_NO_THROW(load_trace(path2, 0));  // class check disabled
  std::remove(path2.c_str());
}

TEST(TraceReplay, DrivesALinkDeterministically) {
  Simulator sim;
  FcfsScheduler sched(4);
  std::vector<double> waits;
  Link link(sim, sched, 100.0, [&](Packet&&, SimTime wait, SimTime) {
    waits.push_back(wait);
  });
  std::uint64_t next_id = 0;
  const auto scheduled =
      replay_trace(sim, kTrace, [&](const ArrivalRecord& rec) {
        Packet p;
        p.id = next_id++;
        p.cls = rec.cls;
        p.size_bytes = rec.size_bytes;
        p.created = rec.time;
        link.arrive(std::move(p));
      });
  EXPECT_EQ(scheduled, kTrace.size());
  sim.run();
  ASSERT_EQ(waits.size(), kTrace.size());
  // Hand-checked Lindley waits at capacity 100 B/tu:
  // t=0 (40 B): 0; t=1.5 (550 B): 0; t=1.5 (1500 B): 5.5; t=9.25: 12.75.
  EXPECT_DOUBLE_EQ(waits[0], 0.0);
  EXPECT_DOUBLE_EQ(waits[1], 0.0);
  EXPECT_DOUBLE_EQ(waits[2], 5.5);
  EXPECT_DOUBLE_EQ(waits[3], 12.75);
}

TEST(TraceReplay, RejectsUnorderedTraceAndNullHandler) {
  Simulator sim;
  const std::vector<ArrivalRecord> bad{{5.0, 0, 10}, {1.0, 0, 10}};
  EXPECT_THROW(replay_trace(sim, bad, [](const ArrivalRecord&) {}),
               std::invalid_argument);
  EXPECT_THROW(replay_trace(sim, kTrace, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace pds
