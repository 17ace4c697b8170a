// Per-class FIFO queue: the packet ring alone.
//
// Packets within one service class always depart in arrival order — every
// scheduler in this library differentiates *between* classes, never inside a
// class. The ring keeps no counters of its own: the per-class packet and
// byte backlog a scheduler reads lives once, in MultiClassBacklog's
// ClassHead snapshot (queueing/backlog.hpp).
//
// Storage is a power-of-two ring buffer over a flat Packet array rather than
// a std::deque: deque's 512-byte block map costs an extra pointer chase per
// access and scatters consecutive packets across allocations, while the ring
// keeps a class's backlog contiguous (modulo one wrap seam) and makes
// push/pop/pop_tail/head branch-free index arithmetic. Head and tail are
// free-running counters masked on access, so emptiness is `head_ == tail_`
// and size is plain subtraction — no wasted slot, no wrap bookkeeping.
// Capacity doubles on overflow and is never given back: a class that once
// built a large backlog is expected to do so again.
//
// Ring storage comes from an optional PacketArena (set_arena before the
// first push): growth then recycles the old ring into the arena's freelist
// instead of hitting the global allocator, which is what keeps the packet
// plane allocation-free in steady state. Without an arena the queue falls
// back to plain operator new/delete. The arena must outlive the queue.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "packet/arena.hpp"
#include "packet/packet.hpp"
#include "util/contracts.hpp"

namespace pds {

class ClassQueue {
 public:
  ClassQueue() = default;

  ~ClassQueue() { free_slots(buf_, cap_); }

  ClassQueue(const ClassQueue&) = delete;
  ClassQueue& operator=(const ClassQueue&) = delete;

  ClassQueue(ClassQueue&& other) noexcept
      : arena_(other.arena_),
        buf_(std::exchange(other.buf_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        mask_(std::exchange(other.mask_, 0)),
        head_(std::exchange(other.head_, 0)),
        tail_(std::exchange(other.tail_, 0)) {}

  ClassQueue& operator=(ClassQueue&& other) noexcept {
    if (this != &other) {
      free_slots(buf_, cap_);
      arena_ = other.arena_;
      buf_ = std::exchange(other.buf_, nullptr);
      cap_ = std::exchange(other.cap_, 0);
      mask_ = std::exchange(other.mask_, 0);
      head_ = std::exchange(other.head_, 0);
      tail_ = std::exchange(other.tail_, 0);
    }
    return *this;
  }

  // Backs the ring with `arena` (nullptr reverts to the global allocator).
  // Must be called before the first push; the arena must outlive the queue.
  void set_arena(PacketArena* arena) {
    PDS_CHECK(cap_ == 0, "set_arena before the first push");
    arena_ = arena;
  }

  void push(Packet p) {
    if (tail_ - head_ == cap_) grow();
    buf_[tail_ & mask_] = p;
    ++tail_;
  }

  // Removes and returns the head. Requires a non-empty queue.
  Packet pop() {
    PDS_REQUIRE(head_ != tail_);
    Packet p = buf_[head_ & mask_];
    ++head_;
    return p;
  }

  // Removes and returns the most recently arrived packet (used by droppers
  // that push out from the tail of a class).
  Packet pop_tail() {
    PDS_REQUIRE(head_ != tail_);
    --tail_;
    return buf_[tail_ & mask_];
  }

  const Packet& head() const {
    PDS_REQUIRE(head_ != tail_);
    return buf_[head_ & mask_];
  }

  bool empty() const noexcept { return head_ == tail_; }
  std::size_t packets() const noexcept { return tail_ - head_; }

  // Allocated slot count (power of two, or zero before the first push).
  std::size_t capacity() const noexcept { return cap_; }

  // True when the ring is arena-backed.
  bool arena_backed() const noexcept { return arena_ != nullptr; }

 private:
  static_assert(std::is_trivially_copyable_v<Packet> &&
                    std::is_trivially_destructible_v<Packet>,
                "the ring relies on raw-memory Packet slots");

  Packet* alloc_slots(std::size_t n) {
    void* mem = arena_ != nullptr
                    ? arena_->acquire(n * sizeof(Packet))
                    : ::operator new(n * sizeof(Packet));
    auto* slots = static_cast<Packet*>(mem);
    for (std::size_t i = 0; i < n; ++i) new (slots + i) Packet();
    return slots;
  }

  void free_slots(Packet* slots, std::size_t n) noexcept {
    if (slots == nullptr) return;
    if (arena_ != nullptr) {
      arena_->release(slots, n * sizeof(Packet));
    } else {
      ::operator delete(slots);
    }
  }

  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    Packet* fresh = alloc_slots(new_cap);
    const std::size_t n = tail_ - head_;
    for (std::size_t i = 0; i < n; ++i) {
      fresh[i] = buf_[(head_ + i) & mask_];
    }
    free_slots(buf_, cap_);
    buf_ = fresh;
    cap_ = new_cap;
    mask_ = new_cap - 1;
    head_ = 0;
    tail_ = n;
  }

  PacketArena* arena_ = nullptr;  // not owned; must outlive the queue
  Packet* buf_ = nullptr;
  std::size_t cap_ = 0;   // power of two (0 until first push)
  std::size_t mask_ = 0;  // cap_ - 1
  std::size_t head_ = 0;  // free-running; buf_[head_ & mask_] is the head
  std::size_t tail_ = 0;  // free-running; one past the most recent arrival
};

}  // namespace pds
