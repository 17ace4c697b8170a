// Closed-loop RPC flow layer over the routed Network fabric.
//
// The paper's traffic plane is open-loop packet streams; production traffic
// is closed-loop users running request/response RPCs. An RpcWorkload models
// N users of one service class on a (forward, reverse) route pair. Each
// user loops forever:
//
//   think ~ Exp(think_mean)  ->  issue RPC  ->  wait for the response  ->  ...
//
// An RPC attempt injects `request_packets` packets (one flow id per
// attempt) on the forward route; when the last request packet exits, the
// "server" immediately injects `response_packets` packets with the same
// flow id on the reverse route; when the last response packet exits, the
// RPC completes. Flow-completion time (FCT) is measured from the FIRST
// attempt's issue to completion, and the per-class SLO is attained when
// FCT <= deadline.
//
// Retries (exemplar: grpc's retry_filter): an optional retry timer of
// `rto` arms with each attempt. On expiry the user retries with
// exponential backoff (rto *= backoff, capped at rto_cap) up to
// max_retries times, gated by a retry-throttle token budget: every timeout
// costs one token, every success restores throttle_ratio tokens (capped at
// throttle_tokens), and retries are permitted only while the budget is
// above half full — so retry storms self-extinguish instead of amplifying
// an overload. When no retry is permitted (retries exhausted or throttle
// blocked) the RPC fails: it scores as an SLO miss and the user moves on,
// which keeps the closed loop alive even when a fault outage drops every
// copy of a request.
//
// Every attempt carries a fresh FlowId from a shared FlowIdAllocator, so
// multiple workloads can share routes and stale packets of abandoned
// attempts are ignored on exit. All timing comes from Simulator events and
// all randomness from the per-user Rng streams split off the workload Rng
// at construction — runs are byte-reproducible from the scenario seed.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "rng/distributions.hpp"
#include "stats/percentile.hpp"
#include "traffic/source.hpp"

namespace pds {

// Shared monotone flow-id counter so attempt ids are unique across every
// workload of a run (mirrors PacketIdAllocator).
class FlowIdAllocator {
 public:
  FlowId next() noexcept { return next_++; }

 private:
  FlowId next_ = 0;
};

struct RpcConfig {
  ClassId cls = 0;
  std::uint32_t users = 1;
  std::uint32_t request_packets = 1;   // k packets per request
  std::uint32_t response_packets = 1;  // k packets per response
  std::uint32_t size_bytes = 441;     // wire size of every flow packet
  double think_mean = 0.0;            // Exp mean between RPCs; 0 = saturating
  double deadline = 0.0;              // SLO deadline on FCT; 0 = no deadline
  double rto = 0.0;                   // initial retry timeout; 0 = no retries
  std::uint32_t max_retries = 0;      // extra attempts beyond the first
  double backoff = 2.0;               // rto multiplier per retry
  double rto_cap = 0.0;               // backoff ceiling; 0 = 10 * rto
  double throttle_tokens = 0.0;       // token budget; 0 = throttle disabled
  double throttle_ratio = 0.1;        // tokens restored per success

  // Throws std::invalid_argument on nonsensical combinations.
  void validate() const;
};

// Counters and FCT samples. completed/failed/slo_met and the FCT set cover
// only *scored* RPCs (first issue at or after the warmup horizon); issued
// counts every RPC regardless.
struct RpcStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;   // scored completions
  std::uint64_t failed = 0;      // scored failures (retries exhausted/throttled)
  std::uint64_t slo_met = 0;     // scored completions with FCT <= deadline
  std::uint64_t retries = 0;     // retry attempts sent (all, scored or not)
  std::uint64_t throttled = 0;   // retries suppressed by the token budget
  SampleSet fct;                 // scored completion times

  std::uint64_t scored() const noexcept { return completed + failed; }
  // SLO attainment over scored RPCs; 1.0 when nothing scored yet.
  double slo_attainment() const noexcept {
    return scored() == 0 ? 1.0
                         : static_cast<double>(slo_met) /
                               static_cast<double>(scored());
  }
};

class RpcWorkload {
 public:
  // `forward` and `reverse` must be routes of `net`; they may coincide
  // (request exits are counted before any response is injected). The
  // workload must outlive the simulation run (scheduled events capture
  // `this`).
  RpcWorkload(Simulator& sim, Network& net, PacketIdAllocator& ids,
              FlowIdAllocator& flows, RouteId forward, RouteId reverse,
              RpcConfig config, Rng rng);

  RpcWorkload(const RpcWorkload&) = delete;
  RpcWorkload& operator=(const RpcWorkload&) = delete;

  // Schedules every user's first RPC at `at` plus one think draw (a phase
  // draw, so users do not align). Call once before running.
  void start(SimTime at);

  // RPCs whose first attempt is issued before `t` are excluded from
  // completed/failed/slo/FCT scoring (default 0 = score everything).
  void set_warmup(SimTime t) noexcept { warmup_ = t; }

  // Exit hook: call for EVERY packet leaving the forward or reverse route
  // (the scenario runner folds this into the routes' exit handlers).
  // Packets of unknown flows — other workloads, abandoned attempts — are
  // ignored.
  void on_route_exit(const Packet& p, SimTime now);

  const RpcConfig& config() const noexcept { return config_; }
  const RpcStats& stats() const noexcept { return stats_; }
  // Users currently waiting on an outstanding RPC.
  std::uint32_t waiting_users() const noexcept { return waiting_; }
  double throttle_balance() const noexcept { return tokens_; }

 private:
  struct Attempt {
    std::uint32_t user = 0;
    std::uint32_t remaining_request = 0;
    std::uint32_t remaining_response = 0;
    FlowId previous = kNoFlow;  // the user's previous attempt of this RPC
  };
  // Live attempts keyed by flow id: open addressing with linear probing
  // and backward-shift deletion over a power-of-two table kept at most
  // half full. It grows only when the live count passes half the table,
  // so a table reserved for every attempt that can be live at once never
  // allocates again. The constructor reserves it before any other call.
  class AttemptTable {
   public:
    void reserve(std::size_t live);
    Attempt* find(FlowId flow) noexcept;
    void insert(FlowId flow, const Attempt& attempt);
    void erase(FlowId flow) noexcept;

   private:
    struct Entry {
      FlowId flow = kNoFlow;  // kNoFlow marks an empty entry
      Attempt attempt;
    };
    std::size_t home(FlowId flow) const noexcept;
    void rehash(std::size_t entries);

    std::vector<Entry> entries_;
    std::size_t live_ = 0;
    unsigned shift_ = 64;  // 64 - log2(entries_.size())
  };

  struct User {
    Rng rng;
    std::uint64_t seq = 0;       // current RPC sequence (staleness guard)
    bool waiting = false;
    SimTime issue_time = kTimeZero;
    double cur_rto = 0.0;
    std::uint32_t attempts = 0;  // attempts issued for the current RPC
    // The newest attempt of the current RPC; the older ones chain through
    // Attempt::previous, so finishing the RPC can erase them all.
    FlowId latest = kNoFlow;
  };

  void schedule_think(std::uint32_t user);
  void issue_rpc(std::uint32_t user);
  void send_attempt(std::uint32_t user);
  void on_timeout(std::uint32_t user, std::uint64_t seq,
                  std::uint32_t attempt);
  void finish_rpc(std::uint32_t user, bool completed, SimTime now);

  Simulator& sim_;
  Network& net_;
  PacketIdAllocator& ids_;
  FlowIdAllocator& flows_;
  RouteId forward_;
  RouteId reverse_;
  RpcConfig config_;
  double rto_cap_ = 0.0;
  ExponentialDist think_;
  std::vector<User> users_;
  AttemptTable attempts_;
  RpcStats stats_;
  SimTime warmup_ = kTimeZero;
  double tokens_ = 0.0;
  std::uint32_t waiting_ = 0;
};

}  // namespace pds
