// Span tracing for the benchmark's traced runs.
//
// The traced run rebuilds a workload from the library's public parts and
// records a span at every layer boundary it can reach from outside the
// library:
//  * KernelMonitor (a SimMonitor): one span per executed event, named by
//    the event's layer (link.tx, traffic.source, flow.issue, ...), plus the
//    kernel's own dispatch gap between one event's end and the next begin;
//  * TimedScheduler (a Scheduler decorator installed with
//    Link::set_scheduler): sched.enqueue / sched.dequeue spans, and the
//    aggregate backlog sampled at each dequeue;
//  * HopProbe (a PacketProbe on every Link): the net.forward span from a
//    packet's departure at one hop to its arrival at the next;
//  * wrappers the rebuild puts around source and route-exit handlers.
//
// A span's self time is its duration minus the time its child spans cover,
// and its self allocations likewise (alloc_hook.hpp). Totals accumulate per
// layer in memory; the first spans after the warmup horizon are also kept
// as records and can be written out as a Chrome trace when the run ends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

#include "dsim/simulator.hpp"
#include "obs/probe.hpp"
#include "sched/scheduler.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kEventOther,     // kernel events with no layer of their own
  kLinkTx,         // "link.tx" event: Link completion and restart
  kTrafficSource,  // "traffic.source" event: gap/size draws and rearm
  kArrival,        // source hand-off into the first hop, minus sched
  kSchedEnqueue,   // Scheduler::enqueue
  kSchedDequeue,   // Scheduler::dequeue / dequeue_burst
  kForward,        // Network forwarding: departure -> next hop's arrival
  kRpcIssue,       // "flow.issue" event: RpcWorkload issue + first inject
  kRpcRto,         // "flow.rto" event: retry timer
  kRpcExit,        // exit handler of a route that carries RPC flows
  kRouteExit,      // exit handler of a plain route (open-loop traffic)
  kSink,           // Study A departure handler (per-class delay stats)
  kFault,          // "fault.*" event: FaultInjector begin/end
  kCtrl,           // "ctrl.*" event: ControlInjector apply/end
  kCount
};

const char* layer_name(Layer layer) noexcept;

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
};

// One recorded span. `parent` is the id of the enclosing span (0 = none).
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  Layer layer = Layer::kEventOther;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

class Tracer {
 public:
  // Keeps up to `span_capacity` span records, starting with the first event
  // at or after simulation time `record_after`.
  Tracer(std::size_t span_capacity, pds::SimTime record_after);

  void begin(Layer layer) noexcept;
  void end() noexcept;
  // Closes the innermost span if it is of `layer` (net.forward spans end at
  // whichever hook sees the packet next).
  void end_if(Layer layer) noexcept;

  // Kernel hooks (KernelMonitor).
  void event_begin(pds::SimTime now, const char* label,
                   std::size_t pending) noexcept;
  void event_end() noexcept;

  // Brackets the simulator's run loop: allocations in between feed
  // dsim.allocs_per_event.
  void run_begin() noexcept;
  void run_end() noexcept;

  void sample_backlog(std::uint64_t packets) noexcept {
    ++backlog_samples;
    backlog_sum += packets;
    if (packets > backlog_max) backlog_max = packets;
  }

  // Adds another tracer's totals (span records stay with their owner).
  void merge(const Tracer& other);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  std::uint64_t events = 0;
  std::uint64_t dispatch_ns = 0;
  std::uint64_t dispatch_gaps = 0;
  std::uint64_t pending_sum = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t backlog_samples = 0;
  std::uint64_t backlog_sum = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t hop_departures = 0;   // packets leaving a hop
  std::uint64_t first_hop_arrivals = 0;
  std::uint64_t source_packets = 0;   // open-loop source emissions
  std::uint64_t rto_events = 0;       // flow.rto timers fired

  const LayerTotals& of(Layer layer) const noexcept {
    return layers[static_cast<std::size_t>(layer)];
  }

 private:
  struct Frame {
    Layer layer;
    std::uint64_t t0;
    std::uint64_t allocs0;
    std::uint64_t child_ns;
    std::uint64_t child_allocs;
    std::uint32_t span;  // index + 1 into spans_, 0 when not recorded
  };

  std::uint64_t now_ns() const noexcept;

  std::vector<Frame> stack_;
  std::vector<SpanRecord> spans_;
  std::size_t span_capacity_;
  pds::SimTime record_after_;
  bool recording_ = false;
  std::uint64_t epoch_ns_ = 0;
  std::uint64_t last_event_end_ = 0;
  std::uint64_t run_allocs0_ = 0;
};

// Kernel observer: one span per event, dispatch gaps, pending-set size.
class KernelMonitor final : public pds::SimMonitor {
 public:
  explicit KernelMonitor(Tracer& tracer) : tracer_(tracer) {}
  void on_event_begin(pds::SimTime now, const char* label,
                      std::size_t pending) noexcept override {
    tracer_.event_begin(now, label, pending);
  }
  void on_event_end(pds::SimTime, const char*) noexcept override {
    tracer_.event_end();
  }

 private:
  Tracer& tracer_;
};

// Timing decorator around a link's scheduler. Forwards every call to the
// wrapped scheduler; it holds no backlog of its own, so a control-plan swap
// (which hands the backlog between class-based schedulers) cannot target a
// decorated link.
class TimedScheduler final : public pds::Scheduler {
 public:
  TimedScheduler(pds::Scheduler& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  void enqueue(pds::Packet p, pds::SimTime now) override;
  std::optional<pds::Packet> dequeue(pds::SimTime now) override;
  std::uint32_t dequeue_burst(pds::SimTime now, pds::Packet* out,
                              std::uint32_t max_k) override;
  std::string_view name() const noexcept override { return inner_.name(); }
  std::optional<pds::Packet> drop_tail(pds::ClassId cls) override {
    return inner_.drop_tail(cls);
  }
  bool empty() const noexcept override { return inner_.empty(); }
  std::uint32_t num_classes() const noexcept override {
    return inner_.num_classes();
  }
  std::uint64_t backlog_packets(pds::ClassId cls) const override {
    return inner_.backlog_packets(cls);
  }
  std::uint64_t backlog_bytes(pds::ClassId cls) const override {
    return inner_.backlog_bytes(cls);
  }
  void set_weights(const std::vector<double>& sdp) override {
    inner_.set_weights(sdp);
  }
  std::uint64_t total_backlog_packets() const override {
    return inner_.total_backlog_packets();
  }
  pds::SimTime max_head_wait(pds::SimTime now) const override {
    return inner_.max_head_wait(now);
  }

 private:
  pds::Scheduler& inner_;
  Tracer& tracer_;
};

// Lifecycle probe on a Link. With `forwarding` set (links of a Network),
// a departure opens a net.forward span that the packet's next arrival,
// drop or route exit closes.
class HopProbe final : public pds::PacketProbe {
 public:
  HopProbe(Tracer& tracer, bool forwarding)
      : tracer_(tracer), forwarding_(forwarding) {}

  void on_arrive(const pds::Packet& p, const pds::ProbeContext&,
                 pds::SimTime) override {
    tracer_.end_if(Layer::kForward);
    if (p.hops_done == 0) ++tracer_.first_hop_arrivals;
  }
  void on_depart(const pds::Packet&, const pds::ProbeContext&, pds::SimTime,
                 pds::SimTime) override {
    ++tracer_.hop_departures;
    if (forwarding_) tracer_.begin(Layer::kForward);
  }
  void on_drop(const pds::Packet&, const pds::ProbeContext&,
               pds::SimTime) override {
    tracer_.end_if(Layer::kForward);
  }

 private:
  Tracer& tracer_;
  bool forwarding_;
};

// Writes the recorded spans of `tracers` (one Chrome-trace thread each) as
// a trace-event JSON array.
void write_chrome_trace(std::ostream& out,
                        const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
