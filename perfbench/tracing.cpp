#include "tracing.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "alloc_hook.hpp"

namespace perfbench {

namespace {

Layer layer_of_label(const char* label) noexcept {
  if (label == nullptr) return Layer::kEventOther;
  if (std::strcmp(label, "link.tx") == 0) return Layer::kLinkTx;
  if (std::strcmp(label, "traffic.source") == 0) return Layer::kTrafficSource;
  if (std::strcmp(label, "flow.issue") == 0) return Layer::kRpcIssue;
  if (std::strcmp(label, "flow.rto") == 0) return Layer::kRpcRto;
  if (std::strncmp(label, "fault.", 6) == 0) return Layer::kFault;
  if (std::strncmp(label, "ctrl.", 5) == 0) return Layer::kCtrl;
  return Layer::kEventOther;
}

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kEventOther: return "event.other";
    case Layer::kLinkTx: return "link.tx";
    case Layer::kTrafficSource: return "traffic.source";
    case Layer::kArrival: return "link.arrive";
    case Layer::kSchedEnqueue: return "sched.enqueue";
    case Layer::kSchedDequeue: return "sched.dequeue";
    case Layer::kForward: return "net.forward";
    case Layer::kRpcIssue: return "flow.issue";
    case Layer::kRpcRto: return "flow.rto";
    case Layer::kRpcExit: return "net.rpc_exit";
    case Layer::kRouteExit: return "net.route_exit";
    case Layer::kSink: return "study_a.sink";
    case Layer::kFault: return "fault.event";
    case Layer::kCtrl: return "ctrl.event";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t span_capacity, pds::SimTime record_after)
    : span_capacity_(span_capacity),
      record_after_(record_after),
      epoch_ns_(steady_ns()) {
  // Reserved up front so recording never allocates inside a traced span.
  stack_.reserve(64);
  spans_.reserve(span_capacity_);
  last_event_end_ = now_ns();
}

std::uint64_t Tracer::now_ns() const noexcept {
  return steady_ns() - epoch_ns_;
}

void Tracer::begin(Layer layer) noexcept {
  std::uint32_t span = 0;
  const std::uint64_t t0 = now_ns();
  if (recording_ && spans_.size() < span_capacity_) {
    SpanRecord rec;
    rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
    rec.parent = stack_.empty() ? 0 : stack_.back().span;
    rec.layer = layer;
    rec.start_ns = t0;
    spans_.push_back(rec);
    span = rec.id;
  }
  stack_.push_back(Frame{layer, t0, thread_allocations(), 0, 0, span});
}

void Tracer::end() noexcept {
  if (stack_.empty()) return;
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t t1 = now_ns();
  const std::uint64_t dur = t1 - f.t0;
  const std::uint64_t allocs = thread_allocations() - f.allocs0;
  LayerTotals& totals = layers[static_cast<std::size_t>(f.layer)];
  ++totals.calls;
  totals.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  totals.self_allocs += allocs - f.child_allocs;
  if (f.span != 0) spans_[f.span - 1].dur_ns = dur;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    stack_.back().child_allocs += allocs;
  }
}

void Tracer::end_if(Layer layer) noexcept {
  if (!stack_.empty() && stack_.back().layer == layer) end();
}

void Tracer::event_begin(pds::SimTime now, const char* label,
                         std::size_t pending) noexcept {
  const std::uint64_t t = now_ns();
  dispatch_ns += t - last_event_end_;
  ++dispatch_gaps;
  ++events;
  pending_sum += pending;
  if (pending > pending_max) pending_max = pending;
  if (!recording_ && now >= record_after_) recording_ = true;
  const Layer layer = layer_of_label(label);
  if (layer == Layer::kRpcRto) ++rto_events;
  begin(layer);
}

void Tracer::event_end() noexcept {
  // A forward span left open by a packet that vanished without a hook
  // (none in the library today) must not swallow the event's self time.
  while (!stack_.empty() && stack_.back().layer == Layer::kForward) end();
  end();
  last_event_end_ = now_ns();
}

void Tracer::run_begin() noexcept {
  run_allocs0_ = thread_allocations();
  last_event_end_ = now_ns();
}

void Tracer::run_end() noexcept {
  run_allocs += thread_allocations() - run_allocs0_;
}

void Tracer::merge(const Tracer& other) {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    layers[i].calls += other.layers[i].calls;
    layers[i].self_ns += other.layers[i].self_ns;
    layers[i].self_allocs += other.layers[i].self_allocs;
  }
  events += other.events;
  dispatch_ns += other.dispatch_ns;
  dispatch_gaps += other.dispatch_gaps;
  pending_sum += other.pending_sum;
  pending_max = std::max(pending_max, other.pending_max);
  run_allocs += other.run_allocs;
  backlog_samples += other.backlog_samples;
  backlog_sum += other.backlog_sum;
  backlog_max = std::max(backlog_max, other.backlog_max);
  hop_departures += other.hop_departures;
  first_hop_arrivals += other.first_hop_arrivals;
  source_packets += other.source_packets;
  rto_events += other.rto_events;
}

void TimedScheduler::enqueue(pds::Packet p, pds::SimTime now) {
  tracer_.begin(Layer::kSchedEnqueue);
  inner_.enqueue(std::move(p), now);
  tracer_.end();
}

std::optional<pds::Packet> TimedScheduler::dequeue(pds::SimTime now) {
  tracer_.sample_backlog(inner_.total_backlog_packets());
  tracer_.begin(Layer::kSchedDequeue);
  auto p = inner_.dequeue(now);
  tracer_.end();
  return p;
}

std::uint32_t TimedScheduler::dequeue_burst(pds::SimTime now, pds::Packet* out,
                                            std::uint32_t max_k) {
  tracer_.sample_backlog(inner_.total_backlog_packets());
  tracer_.begin(Layer::kSchedDequeue);
  const std::uint32_t k = inner_.dequeue_burst(now, out, max_k);
  tracer_.end();
  return k;
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<const Tracer*>& tracers) {
  out << "[";
  bool first = true;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    for (const SpanRecord& s : tracers[t]->spans()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\":\"" << layer_name(s.layer)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
          << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
    }
  }
  out << "\n]\n";
}

}  // namespace perfbench
