// Priority-scan kernels for the per-dequeue argmax/argmin that every
// proportional scheduler runs over the flat ClassHead snapshot.
//
// A dequeue decision is one pass of a scalar loop over the backlog's
// ClassHead array (queueing/backlog.hpp): idle classes (`packets == 0`) are
// skipped, and the head's arrival time and wire size are read in place.
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
#include "queueing/backlog.hpp"

namespace pds::scan {

// Read-only view of the backlog's head-of-line snapshot.
struct Heads {
  const ClassHead* head;  // one record per class
  std::uint32_t n;        // class count
};

// All selectors require at least one backlogged class (callers gate on
// MultiClassBacklog::empty()) and return the winning class index under the
// tie-break above. Every per-class array holds `heads.n` entries.

// WTP (Eq. 11): argmax over backlogged c of (now - arrival[c]) * sdp[c].
ClassId wtp_select(const Heads& heads, const double* sdp, double now);

// Additive differentiation: argmax of (now - arrival[c]) + sdp[c].
ClassId additive_select(const Heads& heads, const double* sdp, double now);

// PAD: argmax of ((cum[c] + (now - arrival[c])) / (served[c] + 1)) * sdp[c].
// `served` counts served packets; the kernel converts it to double, which
// is exact below 2^53.
ClassId pad_select(const Heads& heads, const double* sdp, const double* cum,
                   const std::uint64_t* served, double now);

// HPD: argmax of g * wtp_term + (1 - g) * pad_term (terms as above).
ClassId hpd_select(const Heads& heads, const double* sdp, const double* cum,
                   const std::uint64_t* served, double now, double g);

// BPR: updates the per-class virtual service in place — 0 for idle classes
// and for heads that reached the front after the last departure, otherwise
// vs[c] += rates[c] * elapsed — then returns the argmin over backlogged c of
// head_bytes[c] - vs[c] (least remaining virtual work, ties to the highest
// class).
ClassId bpr_select(const Heads& heads, const double* rates, double* vs,
                   double elapsed, double last_departure, bool any_departure);

}  // namespace pds::scan
