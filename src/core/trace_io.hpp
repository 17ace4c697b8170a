// Arrival-trace persistence and replay.
//
// Section 6 suggests using "bursty precomputed arrivals, common for all
// flows" to compare treatments on identical traffic; Section 7 calls for
// estimating d(lambda) from real link measurements. Both need traces as
// first-class artifacts: this module stores ArrivalRecord sequences as CSV
// (time,class,bytes — interoperable with external tooling), loads them
// back with validation, and replays them through a Simulator so any
// scheduler can be driven by a recorded or hand-built workload.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/trace.hpp"
#include "dsim/simulator.hpp"

namespace pds {

// Writes `trace` to `path` (CSV with header), committing atomically
// (util/atomic_file.hpp). Throws std::runtime_error on I/O failure.
void save_trace(const std::string& path,
                const std::vector<ArrivalRecord>& trace);

// Loads a trace written by save_trace (or any CSV with the same header).
// Validates ordering, class indices against `num_classes` (0 = skip the
// class check) and positive sizes; throws std::runtime_error /
// std::invalid_argument on malformed input.
std::vector<ArrivalRecord> load_trace(const std::string& path,
                                      std::uint32_t num_classes = 0);

// Schedules one event per record on `sim`; each fires `handler(record)` at
// record.time. The records must be time-ordered. Returns the number of
// scheduled arrivals.
std::size_t replay_trace(Simulator& sim,
                         const std::vector<ArrivalRecord>& trace,
                         std::function<void(const ArrivalRecord&)> handler);

}  // namespace pds
