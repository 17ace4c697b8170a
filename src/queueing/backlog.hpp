// A fixed-size set of per-class FIFO queues with aggregate accounting —
// the shared state of every multi-class scheduler.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/arena.hpp"
#include "packet/packet.hpp"
#include "queueing/class_queue.hpp"

namespace pds {

// Contiguous head-of-line snapshot, one entry per class: everything a
// scheduler's dequeue scan reads (head arrival time, head size, byte and
// packet backlog) in one flat 24-byte record, maintained incrementally by
// push/pop/pop_tail. `bytes` and `packets` are always exact; `arrival` and
// `head_bytes` describe the head packet and are stale while `packets == 0`
// (the idle sentinel). Schedulers scan this array instead
// of chasing per-class queue objects, so one decision over N classes
// touches one or two cache lines instead of N.
struct ClassHead {
  SimTime arrival = kTimeZero;   // arrival time of the head packet
  std::uint64_t bytes = 0;       // byte backlog of the class
  std::uint32_t head_bytes = 0;  // wire size of the head packet
  std::uint32_t packets = 0;     // packet backlog; 0 == idle
};

class MultiClassBacklog {
 public:
  // Lane-padding granularity of the SoA mirror below; must equal
  // scan::kLanes (static_asserted in sched/scheduler.cpp).
  static constexpr std::uint32_t kLanePad = 4;

  // `arena`, when non-null, backs every class ring (see ClassQueue) and
  // must outlive the backlog.
  explicit MultiClassBacklog(std::uint32_t num_classes,
                             PacketArena* arena = nullptr);

  // Movable so a live scheduler swap (ctrl/) can hand the whole backlog —
  // class rings and SoA mirror intact — to a replacement scheduler. The
  // moved-from backlog must be reassigned before further use.
  MultiClassBacklog(MultiClassBacklog&&) = default;
  MultiClassBacklog& operator=(MultiClassBacklog&&) = default;
  MultiClassBacklog(const MultiClassBacklog&) = delete;
  MultiClassBacklog& operator=(const MultiClassBacklog&) = delete;

  void push(Packet p);
  Packet pop(ClassId cls);
  // Removes the most recent arrival of a class (push-out for droppers).
  Packet pop_tail(ClassId cls);

  // Drains up to `max_k` consecutive head packets of one class into `out`
  // (capacity >= max_k) and returns how many were popped — the backlog half
  // of a burst dequeue. Identical accounting to that many pop() calls.
  std::uint32_t pop_burst(ClassId cls, std::uint32_t max_k, Packet* out);

  std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }

  const ClassQueue& queue(ClassId cls) const;
  ClassQueue& queue(ClassId cls);

  // Head-of-line snapshot indexed by class; exactly num_classes() entries.
  const ClassHead* heads() const noexcept { return heads_.data(); }
  const ClassHead& head_of(ClassId cls) const noexcept { return heads_[cls]; }

  // --- SoA mirror of the head snapshot, for the priority scan
  // (sched/scan.hpp). All three arrays hold lane_count() entries: the first
  // num_classes() lanes mirror the backlogged heads (idle and padding lanes
  // read 0.0 / mask 0), maintained incrementally by push/pop/pop_tail.
  const double* soa_head_arrival() const noexcept {
    return soa_arrival_.data();
  }
  const double* soa_head_bytes() const noexcept {
    return soa_head_bytes_.data();
  }
  const std::uint64_t* soa_mask() const noexcept { return soa_mask_.data(); }
  std::uint32_t lane_count() const noexcept {
    return static_cast<std::uint32_t>(soa_mask_.size());
  }

  // Backing arena shared by every class ring (nullptr == global allocator).
  PacketArena* arena() const noexcept { return arena_; }

  bool empty() const noexcept { return total_packets_ == 0; }
  std::uint64_t total_packets() const noexcept { return total_packets_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

  // Indices of currently backlogged classes, ascending.
  std::vector<ClassId> backlogged() const;

 private:
  void refresh_soa_head(ClassId cls);

  PacketArena* arena_ = nullptr;
  std::vector<ClassQueue> queues_;
  std::vector<ClassHead> heads_;
  std::vector<double> soa_arrival_;
  std::vector<double> soa_head_bytes_;
  std::vector<std::uint64_t> soa_mask_;
  std::uint64_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace pds
