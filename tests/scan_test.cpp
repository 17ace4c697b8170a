// Tie-break contract of the priority-scan kernels: among classes attaining
// the best priority the highest class index wins, and a lone backlogged
// class wins wherever it sits in the head array.
#include <gtest/gtest.h>

#include <vector>

#include "sched/scan.hpp"

namespace pds {
namespace {

// Head snapshot of n classes plus the per-class kernel inputs, every class
// idle.
struct HeadState {
  explicit HeadState(std::uint32_t classes)
      : n(classes), head(n), sdp(n, 0.0), cum(n, 0.0), served(n, 0) {}

  void backlog(std::uint32_t c, double at, std::uint32_t bytes) {
    head[c].arrival = at;
    head[c].bytes = bytes;
    head[c].head_bytes = bytes;
    head[c].packets = 1;
  }

  scan::Heads heads() const { return scan::Heads{head.data(), n}; }

  std::uint32_t n;
  std::vector<ClassHead> head;
  std::vector<double> sdp;
  std::vector<double> cum;
  std::vector<std::uint64_t> served;
};

TEST(ScanKernels, ExactTieGoesToHighestClass) {
  // All backlogged classes share arrival, size and SDP: every priority is
  // numerically identical, so the paper's tie-break (highest class) decides.
  for (std::uint32_t n : {1u, 2u, 3u, 4u, 5u, 8u, 9u}) {
    HeadState st(n);
    for (std::uint32_t c = 0; c < n; ++c) {
      st.backlog(c, 10.0, 100);
      st.sdp[c] = 1.0;
    }
    const auto h = st.heads();
    std::vector<double> rates(st.n, 1.0);
    std::vector<double> vs(st.n, 0.0);
    EXPECT_EQ(scan::wtp_select(h, st.sdp.data(), 20.0), n - 1);
    EXPECT_EQ(scan::additive_select(h, st.sdp.data(), 20.0), n - 1);
    EXPECT_EQ(scan::pad_select(h, st.sdp.data(), st.cum.data(),
                               st.served.data(), 20.0),
              n - 1);
    EXPECT_EQ(scan::hpd_select(h, st.sdp.data(), st.cum.data(),
                               st.served.data(), 20.0, 0.875),
              n - 1);
    EXPECT_EQ(scan::bpr_select(h, rates.data(), vs.data(), 0.0, 20.0, true),
              n - 1);
  }
}

TEST(ScanKernels, SingleBackloggedClassWinsRegardlessOfIndex) {
  for (std::uint32_t n : {1u, 4u, 7u}) {
    for (std::uint32_t only = 0; only < n; ++only) {
      HeadState st(n);
      for (std::uint32_t c = 0; c < n; ++c) st.sdp[c] = 1.0 + c;
      st.backlog(only, 5.0, 200);
      const auto h = st.heads();
      std::vector<double> rates(st.n, 1.0);
      std::vector<double> vs(st.n, 0.0);
      EXPECT_EQ(scan::wtp_select(h, st.sdp.data(), 9.0), only);
      EXPECT_EQ(scan::additive_select(h, st.sdp.data(), 9.0), only);
      EXPECT_EQ(scan::pad_select(h, st.sdp.data(), st.cum.data(),
                                 st.served.data(), 9.0),
                only);
      EXPECT_EQ(scan::hpd_select(h, st.sdp.data(), st.cum.data(),
                                 st.served.data(), 9.0, 0.5),
                only);
      EXPECT_EQ(scan::bpr_select(h, rates.data(), vs.data(), 1.0, 8.0, true),
                only);
    }
  }
}

}  // namespace
}  // namespace pds
