#include "queueing/backlog.hpp"

#include "util/contracts.hpp"

namespace pds {

MultiClassBacklog::MultiClassBacklog(std::uint32_t num_classes,
                                     PacketArena* arena)
    : arena_(arena), queues_(num_classes), heads_(num_classes) {
  PDS_CHECK(num_classes >= 1, "need at least one class");
  if (arena != nullptr) {
    for (auto& q : queues_) q.set_arena(arena);
  }
}

void MultiClassBacklog::push(Packet p) {
  PDS_CHECK(p.cls < queues_.size(), "class index out of range");
  ++total_packets_;
  total_bytes_ += p.size_bytes;
  ClassHead& h = heads_[p.cls];
  h.bytes += p.size_bytes;
  if (h.packets++ == 0) {
    // The arrival becomes the head of an idle class.
    h.arrival = p.arrival;
    h.head_bytes = p.size_bytes;
  }
  queues_[p.cls].push(std::move(p));
}

Packet MultiClassBacklog::pop(ClassId cls) {
  PDS_CHECK(cls < queues_.size(), "class index out of range");
  Packet p = queues_[cls].pop();
  --total_packets_;
  total_bytes_ -= p.size_bytes;
  ClassHead& h = heads_[cls];
  h.bytes -= p.size_bytes;
  if (--h.packets != 0) {
    const Packet& next = queues_[cls].head();
    h.arrival = next.arrival;
    h.head_bytes = next.size_bytes;
  }
  return p;
}

Packet MultiClassBacklog::pop_tail(ClassId cls) {
  PDS_CHECK(cls < queues_.size(), "class index out of range");
  Packet p = queues_[cls].pop_tail();
  --total_packets_;
  total_bytes_ -= p.size_bytes;
  ClassHead& h = heads_[cls];
  h.bytes -= p.size_bytes;
  // A tail removal never changes the head fields: either the head stays,
  // or the class empties and `packets == 0` marks them stale.
  --h.packets;
  return p;
}

}  // namespace pds
