#include "obs/tracer.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"

namespace pds {

namespace {

// SplitMix64 finalizer: a high-quality 64-bit mix, used as a stateless hash
// so the sampling decision is a pure function of (id, seed).
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* to_string(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kArrive:
      return "arrive";
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kDequeue:
      return "dequeue";
    case TraceEventKind::kDepart:
      return "depart";
    case TraceEventKind::kDrop:
      return "drop";
  }
  return "?";
}

TraceEventKind trace_event_kind_from_string(const std::string& s) {
  if (s == "arrive") return TraceEventKind::kArrive;
  if (s == "enqueue") return TraceEventKind::kEnqueue;
  if (s == "dequeue") return TraceEventKind::kDequeue;
  if (s == "depart") return TraceEventKind::kDepart;
  if (s == "drop") return TraceEventKind::kDrop;
  throw std::invalid_argument("unknown trace event kind: " + s);
}

PacketTracer::PacketTracer(double sample_rate, std::uint64_t seed)
    : sample_rate_(sample_rate), seed_(seed) {
  PDS_CHECK(sample_rate >= 0.0 && sample_rate <= 1.0,
            "sample rate must be in [0,1]");
  if (sample_rate >= 1.0) {
    threshold_ = ~0ULL;
  } else {
    threshold_ = static_cast<std::uint64_t>(
        sample_rate * static_cast<double>(~0ULL));
  }
}

bool PacketTracer::sampled(std::uint64_t packet_id) const noexcept {
  if (sample_rate_ >= 1.0) return true;
  if (sample_rate_ <= 0.0) return false;
  return mix64(packet_id ^ mix64(seed_)) < threshold_;
}

void PacketTracer::record(const Packet& p, const ProbeContext& ctx,
                          SimTime now, TraceEventKind kind, double wait) {
  if (!sampled(p.id)) return;
  records_.push_back(TraceRecord{now, p.id, kind, p.cls, ctx.hop,
                                 p.size_bytes, wait, ctx.backlog_packets,
                                 ctx.backlog_bytes});
}

void PacketTracer::on_arrive(const Packet& p, const ProbeContext& ctx,
                             SimTime now) {
  record(p, ctx, now, TraceEventKind::kArrive, 0.0);
}

void PacketTracer::on_enqueue(const Packet& p, const ProbeContext& ctx,
                              SimTime now) {
  record(p, ctx, now, TraceEventKind::kEnqueue, 0.0);
}

void PacketTracer::on_dequeue(const Packet& p, const ProbeContext& ctx,
                              SimTime now, SimTime wait) {
  record(p, ctx, now, TraceEventKind::kDequeue, wait);
}

void PacketTracer::on_depart(const Packet& p, const ProbeContext& ctx,
                             SimTime now, SimTime wait) {
  record(p, ctx, now, TraceEventKind::kDepart, wait);
}

void PacketTracer::on_drop(const Packet& p, const ProbeContext& ctx,
                           SimTime now) {
  record(p, ctx, now, TraceEventKind::kDrop, 0.0);
}

void PacketTracer::save(const std::string& path) const {
  AtomicOutFile file(path);
  std::ostream& out = file.stream();
  out << "time,packet_id,event,class,hop,size_bytes,wait,"
         "backlog_packets,backlog_bytes\n";
  for (const auto& r : records_) {
    out << r.time << ',' << r.packet_id << ',' << to_string(r.kind) << ','
        << r.cls << ',' << r.hop << ',' << r.size_bytes << ',' << r.wait
        << ',' << r.backlog_packets << ',' << r.backlog_bytes << '\n';
  }
  file.close();
}

std::vector<TraceRecord> PacketTracer::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  std::vector<TraceRecord> records;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first) {
      first = false;
      PDS_CHECK(line.rfind("time,packet_id,event", 0) == 0,
                "not a packet trace CSV (bad header): " + path);
      continue;
    }
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string field;
    std::vector<std::string> fields;
    while (std::getline(ls, field, ',')) fields.push_back(field);
    PDS_CHECK(fields.size() == 9, "malformed trace row: " + line);
    TraceRecord r;
    r.time = std::stod(fields[0]);
    r.packet_id = std::stoull(fields[1]);
    r.kind = trace_event_kind_from_string(fields[2]);
    r.cls = static_cast<ClassId>(std::stoul(fields[3]));
    r.hop = static_cast<std::uint32_t>(std::stoul(fields[4]));
    r.size_bytes = static_cast<std::uint32_t>(std::stoul(fields[5]));
    r.wait = std::stod(fields[6]);
    r.backlog_packets = std::stoull(fields[7]);
    r.backlog_bytes = std::stoull(fields[8]);
    records.push_back(r);
  }
  return records;
}

}  // namespace pds
