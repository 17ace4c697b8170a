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
// scheduling decision reads (head arrival time, head size, byte and packet
// backlog) in one flat 24-byte record, maintained incrementally by
// push/pop/pop_tail, and the only copy of the per-class counts. `bytes` and
// `packets` are always exact; `arrival` and `head_bytes` describe the head
// packet and are stale while `packets == 0` (the idle sentinel). The
// class-selection loop (ClassBasedScheduler::select_class) reads this array
// directly, so one decision over N classes touches one or two cache lines
// instead of N queue objects.
struct ClassHead {
  SimTime arrival = kTimeZero;   // arrival time of the head packet
  std::uint64_t bytes = 0;       // byte backlog of the class
  std::uint32_t head_bytes = 0;  // wire size of the head packet
  std::uint32_t packets = 0;     // packet backlog; 0 == idle
};

class MultiClassBacklog {
 public:
  // `arena`, when non-null, backs every class ring (see ClassQueue) and
  // must outlive the backlog.
  explicit MultiClassBacklog(std::uint32_t num_classes,
                             PacketArena* arena = nullptr);

  // Movable so a live scheduler swap (ctrl/) can hand the whole backlog —
  // class rings and head snapshot intact — to a replacement scheduler. The
  // moved-from backlog must be reassigned before further use.
  MultiClassBacklog(MultiClassBacklog&&) = default;
  MultiClassBacklog& operator=(MultiClassBacklog&&) = default;
  MultiClassBacklog(const MultiClassBacklog&) = delete;
  MultiClassBacklog& operator=(const MultiClassBacklog&) = delete;

  void push(Packet p);
  Packet pop(ClassId cls);
  // Removes the most recent arrival of a class (push-out for droppers).
  Packet pop_tail(ClassId cls);

  std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(queues_.size());
  }

  // Head-of-line snapshot indexed by class; exactly num_classes() entries.
  const ClassHead* heads() const noexcept { return heads_.data(); }
  const ClassHead& head_of(ClassId cls) const noexcept { return heads_[cls]; }

  // Backing arena shared by every class ring (nullptr == global allocator).
  PacketArena* arena() const noexcept { return arena_; }

  bool empty() const noexcept { return total_packets_ == 0; }
  std::uint64_t total_packets() const noexcept { return total_packets_; }
  std::uint64_t total_bytes() const noexcept { return total_bytes_; }

 private:
  PacketArena* arena_ = nullptr;
  std::vector<ClassQueue> queues_;
  std::vector<ClassHead> heads_;
  std::uint64_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace pds
