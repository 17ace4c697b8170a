#include "core/trace_io.hpp"

#include <fstream>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/contracts.hpp"

namespace pds {

void save_trace(const std::string& path,
                const std::vector<ArrivalRecord>& trace) {
  AtomicOutFile file(path);
  std::ostream& out = file.stream();
  out << "time,class,bytes\n";
  out.precision(17);
  for (const auto& rec : trace) {
    out << rec.time << "," << rec.cls << "," << rec.size_bytes << "\n";
  }
  file.close();
}

std::vector<ArrivalRecord> load_trace(const std::string& path,
                                      std::uint32_t num_classes) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::string line;
  PDS_CHECK(static_cast<bool>(std::getline(in, line)), "empty trace file");
  PDS_CHECK(line == "time,class,bytes",
            "unexpected trace header in " + path);
  std::vector<ArrivalRecord> trace;
  SimTime prev = 0.0;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream row(line);
    ArrivalRecord rec{};
    char comma1 = 0;
    char comma2 = 0;
    row >> rec.time >> comma1 >> rec.cls >> comma2 >> rec.size_bytes;
    if (!row || comma1 != ',' || comma2 != ',') {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed trace row: " + line);
    }
    PDS_CHECK(rec.time >= prev, "trace not time-ordered");
    PDS_CHECK(rec.size_bytes > 0, "zero-size packet in trace");
    if (num_classes > 0) {
      PDS_CHECK(rec.cls < num_classes, "class index out of range in trace");
    }
    prev = rec.time;
    trace.push_back(rec);
  }
  return trace;
}

std::size_t replay_trace(Simulator& sim,
                         const std::vector<ArrivalRecord>& trace,
                         std::function<void(const ArrivalRecord&)> handler) {
  PDS_CHECK(static_cast<bool>(handler), "null replay handler");
  // Every scheduled event shares one handler; the shared_ptr (16B) plus the
  // record (16B) fit in SimEvent's inline buffer, so scheduling a record
  // costs no allocation beyond the queue slot itself.
  auto shared = std::make_shared<std::function<void(const ArrivalRecord&)>>(
      std::move(handler));
  SimTime prev = 0.0;
  for (const auto& rec : trace) {
    PDS_CHECK(rec.time >= prev, "trace not time-ordered");
    prev = rec.time;
    sim.schedule_at(rec.time, SimEvent([shared, rec] { (*shared)(rec); },
                                       "trace.replay"));
  }
  return trace.size();
}

}  // namespace pds
