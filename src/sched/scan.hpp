// Priority-scan kernels for the per-dequeue argmax/argmin that every
// proportional scheduler runs over the flat ClassHead snapshot.
//
// MultiClassBacklog maintains, next to the ClassHead records, a
// structure-of-arrays mirror (head arrival, head wire size as a double, and
// a backlogged lane mask) padded to a multiple of kLanes; a dequeue decision
// is one pass of a scalar loop over those arrays.
//
// Determinism contract: the kernels are the exact arithmetic the schedulers
// have always used, expression for expression, and the golden Study A trace
// hash pins their decisions. scan.cpp is compiled with -ffp-contract=off so
// no -march or optimization level can contract their mul+add sequences into
// FMAs and move that hash. The tie-break is the paper's: among classes
// attaining the best priority, the HIGHEST class index wins (the loops scan
// ascending and update on `>=` / `<=`).
#pragma once

#include <cstdint>

#include "packet/packet.hpp"

namespace pds::scan {

// Lane padding granularity of every array the kernels read. All SoA arrays
// (arrival/head_bytes/mask from MultiClassBacklog, plus the per-scheduler
// sdp/cum/served/rates/virtual-service vectors) hold `padded(n)` entries;
// lanes at index >= n carry mask 0 and value 0.0.
inline constexpr std::uint32_t kLanes = 4;

inline constexpr std::uint32_t padded_lanes(std::uint32_t n) noexcept {
  return (n + (kLanes - 1)) & ~(kLanes - 1);
}

// Read-only view of the backlog's head-of-line SoA mirror.
struct Heads {
  const double* arrival;          // head arrival time; 0.0 when idle
  const double* head_bytes;       // head wire size as double; 0.0 when idle
  const std::uint64_t* mask;      // all-ones when backlogged, 0 when idle
  std::uint32_t n;                // real class count
  std::uint32_t lanes;            // padded_lanes(n)
};

// All selectors require at least one backlogged class (callers gate on
// MultiClassBacklog::empty()) and return the winning class index under the
// tie-break above.

// WTP (Eq. 11): argmax over backlogged c of (now - arrival[c]) * sdp[c].
ClassId wtp_select(const Heads& heads, const double* sdp, double now);

// Additive differentiation: argmax of (now - arrival[c]) + sdp[c].
ClassId additive_select(const Heads& heads, const double* sdp, double now);

// PAD: argmax of ((cum[c] + (now - arrival[c])) / (served[c] + 1)) * sdp[c].
// `served` is the served-packet count mirrored as doubles (exact below 2^53).
ClassId pad_select(const Heads& heads, const double* sdp, const double* cum,
                   const double* served, double now);

// HPD: argmax of g * wtp_term + (1 - g) * pad_term (terms as above).
ClassId hpd_select(const Heads& heads, const double* sdp, const double* cum,
                   const double* served, double now, double g);

// BPR: updates the per-class virtual service in place — 0 for idle classes
// and for heads that reached the front after the last departure, otherwise
// vs[c] += rates[c] * elapsed — then returns the argmin over backlogged c of
// head_bytes[c] - vs[c] (least remaining virtual work, ties to the highest
// class). `vs` must hold heads.lanes entries.
ClassId bpr_select(const Heads& heads, const double* rates, double* vs,
                   double elapsed, double last_departure, bool any_departure);

}  // namespace pds::scan
