#include "net/flows.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace pds {

void RpcConfig::validate() const {
  PDS_CHECK(users >= 1, "flows need at least one user");
  PDS_CHECK(request_packets >= 1, "request needs at least one packet");
  PDS_CHECK(response_packets >= 1, "response needs at least one packet");
  PDS_CHECK(size_bytes >= 1, "flow packets need a positive size");
  PDS_CHECK(think_mean >= 0.0, "think time must be non-negative");
  PDS_CHECK(deadline >= 0.0, "deadline must be non-negative");
  PDS_CHECK(rto >= 0.0, "rto must be non-negative");
  PDS_CHECK(max_retries == 0 || rto > 0.0,
            "retries need a positive rto");
  PDS_CHECK(backoff >= 1.0, "backoff multiplier must be >= 1");
  PDS_CHECK(rto_cap >= 0.0, "rto cap must be non-negative");
  PDS_CHECK(throttle_tokens >= 0.0, "throttle tokens must be non-negative");
  PDS_CHECK(throttle_ratio > 0.0 || throttle_tokens == 0.0,
            "throttle ratio must be positive when throttling");
}

RpcWorkload::RpcWorkload(Simulator& sim, Network& net, PacketIdAllocator& ids,
                         FlowIdAllocator& flows, RouteId forward,
                         RouteId reverse, RpcConfig config, Rng rng)
    : sim_(sim),
      net_(net),
      ids_(ids),
      flows_(flows),
      forward_(forward),
      reverse_(reverse),
      config_(config),
      rto_cap_(config.rto_cap > 0.0 ? config.rto_cap : 10.0 * config.rto),
      think_(ExponentialDist(config.think_mean > 0.0 ? config.think_mean
                                                     : 1.0)),
      tokens_(config.throttle_tokens) {
  config_.validate();
  PDS_CHECK(forward < net.num_routes() && reverse < net.num_routes(),
            "flows reference unknown routes");
  // Room for every attempt that can be live at once: each user waits on
  // one RPC, which has at most max_retries + 1 attempts outstanding, so
  // issuing, retrying and finishing RPCs allocate nothing. Past
  // kReservedAttempts per user (retry counts far beyond any backoff
  // horizon) the table grows on demand instead.
  constexpr std::uint32_t kReservedAttempts = 64;
  const std::uint32_t per_user =
      config_.max_retries < kReservedAttempts ? config_.max_retries + 1
                                              : kReservedAttempts;
  attempts_.reserve(std::size_t{config_.users} * per_user);
  users_.reserve(config_.users);
  // Per-user streams split in user order — byte-reproducible from the seed.
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    User user;
    user.rng = rng.split();
    users_.push_back(std::move(user));
  }
}

void RpcWorkload::AttemptTable::reserve(std::size_t live) {
  std::size_t entries = 16;
  while (entries < 2 * live) entries *= 2;
  if (entries > entries_.size()) rehash(entries);
}

std::size_t RpcWorkload::AttemptTable::home(FlowId flow) const noexcept {
  // Fibonacci hashing: the top bits of flow * 2^64/phi.
  return static_cast<std::size_t>(
      (std::uint64_t{flow} * 0x9E3779B97F4A7C15ULL) >> shift_);
}

void RpcWorkload::AttemptTable::rehash(std::size_t entries) {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(entries, Entry{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(entries));
  live_ = 0;
  for (const Entry& e : old) {
    if (e.flow != kNoFlow) insert(e.flow, e.attempt);
  }
}

RpcWorkload::Attempt* RpcWorkload::AttemptTable::find(FlowId flow) noexcept {
  const std::size_t mask = entries_.size() - 1;
  // Empty entries are checked first: packets outside any flow carry
  // kNoFlow, the empty marker, and must find nothing.
  for (std::size_t i = home(flow);; i = (i + 1) & mask) {
    if (entries_[i].flow == kNoFlow) return nullptr;
    if (entries_[i].flow == flow) return &entries_[i].attempt;
  }
}

void RpcWorkload::AttemptTable::insert(FlowId flow, const Attempt& attempt) {
  PDS_REQUIRE(flow != kNoFlow);
  if (2 * (live_ + 1) > entries_.size()) rehash(2 * entries_.size());
  const std::size_t mask = entries_.size() - 1;
  std::size_t i = home(flow);
  while (entries_[i].flow != kNoFlow) i = (i + 1) & mask;
  entries_[i] = Entry{flow, attempt};
  ++live_;
}

void RpcWorkload::AttemptTable::erase(FlowId flow) noexcept {
  const std::size_t mask = entries_.size() - 1;
  std::size_t hole = home(flow);
  for (;; hole = (hole + 1) & mask) {
    if (entries_[hole].flow == kNoFlow) return;
    if (entries_[hole].flow == flow) break;
  }
  // Backward shift: walk the run after the hole and move back every entry
  // whose home does not lie cyclically in (hole, j], so no probe sequence
  // ever crosses an empty entry.
  for (std::size_t j = (hole + 1) & mask; entries_[j].flow != kNoFlow;
       j = (j + 1) & mask) {
    const std::size_t h = home(entries_[j].flow);
    const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (!stays) {
      entries_[hole] = entries_[j];
      hole = j;
    }
  }
  entries_[hole].flow = kNoFlow;
  --live_;
}

void RpcWorkload::start(SimTime at) {
  for (std::uint32_t u = 0; u < config_.users; ++u) {
    const double phase =
        config_.think_mean > 0.0 ? think_.sample(users_[u].rng) : 0.0;
    sim_.schedule_at(at + phase, [this, u] { issue_rpc(u); }, "flow.issue");
  }
}

void RpcWorkload::schedule_think(std::uint32_t user) {
  const double gap =
      config_.think_mean > 0.0 ? think_.sample(users_[user].rng) : 0.0;
  sim_.schedule_in(gap, [this, user] { issue_rpc(user); }, "flow.issue");
}

void RpcWorkload::issue_rpc(std::uint32_t user) {
  User& u = users_[user];
  PDS_REQUIRE(!u.waiting);
  u.waiting = true;
  ++waiting_;
  u.issue_time = sim_.now();
  u.attempts = 0;
  u.cur_rto = config_.rto;
  ++stats_.issued;
  send_attempt(user);
}

void RpcWorkload::send_attempt(std::uint32_t user) {
  User& u = users_[user];
  ++u.attempts;
  const FlowId flow = flows_.next();
  attempts_.insert(flow, Attempt{user, config_.request_packets,
                                 config_.response_packets, u.latest});
  u.latest = flow;
  for (std::uint32_t k = 0; k < config_.request_packets; ++k) {
    Packet p;
    p.id = ids_.next();
    p.cls = config_.cls;
    p.size_bytes = config_.size_bytes;
    p.flow = flow;
    p.created = sim_.now();
    net_.inject(std::move(p), forward_);
  }
  if (config_.rto > 0.0) {
    const std::uint64_t seq = u.seq;
    const std::uint32_t attempt = u.attempts;
    sim_.schedule_in(
        u.cur_rto,
        [this, user, seq, attempt] { on_timeout(user, seq, attempt); },
        "flow.rto");
  }
}

void RpcWorkload::on_route_exit(const Packet& p, SimTime now) {
  Attempt* const found = attempts_.find(p.flow);
  if (found == nullptr) return;  // foreign workload or abandoned attempt
  Attempt& attempt = *found;
  if (attempt.remaining_request > 0) {
    if (--attempt.remaining_request == 0) {
      // Server turnaround: the response leaves immediately with the same
      // flow id on the reverse route.
      const FlowId flow = p.flow;
      for (std::uint32_t k = 0; k < config_.response_packets; ++k) {
        Packet r;
        r.id = ids_.next();
        r.cls = config_.cls;
        r.size_bytes = config_.size_bytes;
        r.flow = flow;
        r.created = now;
        net_.inject(std::move(r), reverse_);
      }
    }
    return;
  }
  PDS_REQUIRE(attempt.remaining_response > 0);
  if (--attempt.remaining_response == 0) finish_rpc(attempt.user, true, now);
}

void RpcWorkload::on_timeout(std::uint32_t user, std::uint64_t seq,
                             std::uint32_t attempt) {
  User& u = users_[user];
  // Stale timer: the RPC completed/failed, or a newer attempt re-armed.
  if (!u.waiting || u.seq != seq || u.attempts != attempt) return;

  // A timeout is a failure signal: it always costs a throttle token
  // (grpc retry_filter semantics), whether or not a retry follows.
  const bool throttling = config_.throttle_tokens > 0.0;
  if (throttling) tokens_ = std::max(0.0, tokens_ - 1.0);

  const bool retries_left = u.attempts <= config_.max_retries;
  const bool throttle_open =
      !throttling || tokens_ > config_.throttle_tokens / 2.0;
  if (retries_left && throttle_open) {
    ++stats_.retries;
    u.cur_rto = std::min(u.cur_rto * config_.backoff, rto_cap_);
    send_attempt(user);
    return;
  }
  if (retries_left) ++stats_.throttled;
  finish_rpc(user, false, sim_.now());
}

void RpcWorkload::finish_rpc(std::uint32_t user, bool completed,
                             SimTime now) {
  User& u = users_[user];
  PDS_REQUIRE(u.waiting);
  for (FlowId flow = u.latest; flow != kNoFlow;) {
    const Attempt* const attempt = attempts_.find(flow);
    PDS_REQUIRE(attempt != nullptr);
    const FlowId previous = attempt->previous;
    attempts_.erase(flow);
    flow = previous;
  }
  u.latest = kNoFlow;
  u.waiting = false;
  --waiting_;
  ++u.seq;

  if (completed && config_.throttle_tokens > 0.0) {
    tokens_ = std::min(config_.throttle_tokens,
                       tokens_ + config_.throttle_ratio);
  }
  if (u.issue_time >= warmup_) {
    if (completed) {
      const double fct = now - u.issue_time;
      ++stats_.completed;
      stats_.fct.add(fct);
      if (config_.deadline <= 0.0 || fct <= config_.deadline) {
        ++stats_.slo_met;
      }
    } else {
      ++stats_.failed;
    }
  }
  schedule_think(user);
}

}  // namespace pds
