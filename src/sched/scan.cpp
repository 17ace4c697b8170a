// Priority-scan kernels.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/sched/CMakeLists.txt): the golden Study A hash pins these exact IEEE
// mul/add/sub/div sequences, so the compiler must not contract them into
// FMAs under any -march.
#include "sched/scan.hpp"

#include "util/contracts.hpp"

namespace pds::scan {

ClassId wtp_select(const Heads& h, const double* sdp, double now) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.head[c].packets == 0) continue;
    const double wait = now - h.head[c].arrival;
    PDS_REQUIRE(wait >= 0.0);
    const double p = wait * sdp[c];
    if (!found || p >= best_priority) {  // >=: tie goes to the higher class
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId additive_select(const Heads& h, const double* sdp, double now) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.head[c].packets == 0) continue;
    const double wait = now - h.head[c].arrival;
    PDS_REQUIRE(wait >= 0.0);
    const double p = wait + sdp[c];
    if (!found || p >= best_priority) {
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId pad_select(const Heads& h, const double* sdp, const double* cum,
                   const std::uint64_t* served, double now) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.head[c].packets == 0) continue;
    const double sum = cum[c] + (now - h.head[c].arrival);
    const double n = static_cast<double>(served[c]) + 1.0;
    const double p = (sum / n) * sdp[c];
    if (!found || p >= best_priority) {
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId hpd_select(const Heads& h, const double* sdp, const double* cum,
                   const std::uint64_t* served, double now, double g) {
  bool found = false;
  ClassId best = 0;
  double best_priority = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.head[c].packets == 0) continue;
    const double head_wait = now - h.head[c].arrival;
    const double wtp_part = head_wait * sdp[c];
    const double sum = cum[c] + head_wait;
    const double n = static_cast<double>(served[c]) + 1.0;
    const double pad_part = (sum / n) * sdp[c];
    const double p = g * wtp_part + (1.0 - g) * pad_part;
    if (!found || p >= best_priority) {
      found = true;
      best = c;
      best_priority = p;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

ClassId bpr_select(const Heads& h, const double* rates, double* vs,
                   double elapsed, double last_departure, bool any_departure) {
  bool found = false;
  ClassId best = 0;
  double best_remaining = 0.0;
  for (ClassId c = 0; c < h.n; ++c) {
    if (h.head[c].packets == 0) {
      vs[c] = 0.0;
      continue;
    }
    if (!any_departure || h.head[c].arrival > last_departure) {
      vs[c] = 0.0;  // head reached the front after t^{k-1}
    } else {
      vs[c] += rates[c] * elapsed;
    }
    const double remaining =
        static_cast<double>(h.head[c].head_bytes) - vs[c];
    if (!found || remaining <= best_remaining) {  // <=: tie to higher class
      found = true;
      best = c;
      best_remaining = remaining;
    }
  }
  PDS_REQUIRE(found);
  return best;
}

}  // namespace pds::scan
