// Packet-lifecycle probe interface — the single attach point the data path
// (schedulers and links) exposes to the observability layer.
//
// Design rules, in decreasing order of importance:
//  * The disabled path must cost near zero. Probes are raw pointers checked
//    inline; the default everywhere is nullptr (null-object), and building
//    with PDS_OBS_ENABLED=0 (-DPDS_OBS=OFF) compiles the notification sites
//    out entirely.
//  * One event per lifecycle transition, emitted by the component that owns
//    the transition: Scheduler -> enqueue, Link -> arrive/dequeue/depart/
//    drop. A packet that crosses H hops therefore produces exactly H depart
//    events and at most one drop event.
//  * Probe methods are plain virtuals with empty default bodies, so a
//    concrete probe only overrides the transitions it cares about.
#pragma once

#include <cstdint>

#include "dsim/time.hpp"
#include "packet/packet.hpp"

// Compile-out switch: -DPDS_OBS=OFF defines PDS_OBS_ENABLED=0 and every
// PDS_OBS_NOTIFY site becomes an empty statement.
#ifndef PDS_OBS_ENABLED
#define PDS_OBS_ENABLED 1
#endif

#if PDS_OBS_ENABLED
#define PDS_OBS_NOTIFY(probe, call)       \
  do {                                    \
    if ((probe) != nullptr) (probe)->call; \
  } while (0)
#else
#define PDS_OBS_NOTIFY(probe, call) \
  do {                              \
  } while (0)
#endif

namespace pds {

// Where in the topology an event happened and what the local state was.
// `backlog_*` refer to the packet's own class at the emitting component,
// sampled immediately after the transition took effect.
struct ProbeContext {
  std::uint32_t hop = 0;
  std::uint64_t backlog_packets = 0;
  std::uint64_t backlog_bytes = 0;
};

class PacketProbe {
 public:
  virtual ~PacketProbe() = default;

  // Packet reached the component (before it is handed to the scheduler).
  virtual void on_arrive(const Packet& p, const ProbeContext& ctx,
                         SimTime now) {
    (void)p, (void)ctx, (void)now;
  }

  // Scheduler accepted the packet into its class queue.
  virtual void on_enqueue(const Packet& p, const ProbeContext& ctx,
                          SimTime now) {
    (void)p, (void)ctx, (void)now;
  }

  // Scheduler released the packet to the transmitter; `wait` is the queueing
  // delay at this hop (the paper's per-hop metric).
  virtual void on_dequeue(const Packet& p, const ProbeContext& ctx,
                          SimTime now, SimTime wait) {
    (void)p, (void)ctx, (void)now, (void)wait;
  }

  // Last byte left the link (packet reaches the next hop / the sink).
  virtual void on_depart(const Packet& p, const ProbeContext& ctx,
                         SimTime now, SimTime wait) {
    (void)p, (void)ctx, (void)now, (void)wait;
  }

  // Packet was discarded (buffer overflow push-out or incoming drop).
  virtual void on_drop(const Packet& p, const ProbeContext& ctx, SimTime now) {
    (void)p, (void)ctx, (void)now;
  }
};

}  // namespace pds
