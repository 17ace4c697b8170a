#include "sched/tag.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pds {

TagScheduler::TagScheduler(const SchedulerConfig& config)
    : ClassBasedScheduler(config), tags_(config.num_classes()) {}

void TagScheduler::enqueue(Packet p, SimTime now) {
  PDS_CHECK(p.cls < num_classes(), "class index out of range");
  PDS_CHECK(p.arrival <= now, "packet arrival stamped in the future");
  tags_[p.cls].push_back(stamp(p, now));
  ClassBasedScheduler::enqueue(p, now);
}

std::uint32_t TagScheduler::dequeue_burst(SimTime, Packet* out,
                                          std::uint32_t max_k) {
  PDS_CHECK(out != nullptr && max_k >= 1, "bad burst buffer");
  const ClassHead* heads = backlog_.heads();
  const ClassId n = backlog_.num_classes();
  std::uint32_t k = 0;
  for (; k < max_k && !backlog_.empty(); ++k) {
    ClassId best = 0;
    double best_tag = 0.0;
    bool found = false;
    for (ClassId c = 0; c < n; ++c) {
      if (heads[c].packets == 0) continue;
      const double tag = tags_[c].front();
      if (!found || tag <= best_tag) {  // ties go to the higher class
        found = true;
        best = c;
        best_tag = tag;
      }
    }
    tags_[best].pop_front();
    out[k] = backlog_.pop(best);
    on_served(best_tag);
  }
  return k;
}

namespace {

SchedulerConfig unit_weights(std::uint32_t num_classes) {
  SchedulerConfig config;
  config.sdp.assign(num_classes, 1.0);
  return config;
}

}  // namespace

FcfsScheduler::FcfsScheduler(std::uint32_t num_classes)
    : TagScheduler(unit_weights(num_classes)) {}

void FcfsScheduler::set_weights(const std::vector<double>&) {
  PDS_CHECK(false, "FCFS does not support live weight retune");
}

double FcfsScheduler::stamp(const Packet&, SimTime) { return arrivals_++; }

ScfqScheduler::ScfqScheduler(const SchedulerConfig& config)
    : TagScheduler(config), last_finish_(config.num_classes(), 0.0) {}

double ScfqScheduler::stamp(const Packet& p, SimTime) {
  const double start = std::max(vtime_, last_finish_[p.cls]);
  last_finish_[p.cls] =
      start + static_cast<double>(p.size_bytes) / sdp()[p.cls];
  return last_finish_[p.cls];
}

void ScfqScheduler::on_served(double tag) {
  vtime_ = tag;
  if (backlog_.empty()) {
    // End of busy period: reset virtual time so an idle system does not
    // carry stale credit into the next busy period.
    vtime_ = 0.0;
    std::fill(last_finish_.begin(), last_finish_.end(), 0.0);
  }
}

VirtualClockScheduler::VirtualClockScheduler(const SchedulerConfig& config)
    : TagScheduler(config), vclock_(config.num_classes(), 0.0) {}

double VirtualClockScheduler::clock(ClassId cls) const {
  PDS_CHECK(cls < vclock_.size(), "class index out of range");
  return vclock_[cls];
}

double VirtualClockScheduler::stamp(const Packet& p, SimTime now) {
  vclock_[p.cls] = std::max(now, vclock_[p.cls]) +
                   static_cast<double>(p.size_bytes) / sdp()[p.cls];
  return vclock_[p.cls];
}

}  // namespace pds
