// Atomic output files: tmp + rename commit, discard on unwind.
//
// Every artifact a run publishes (metrics time series, violation logs, span
// traces, run reports) must be all-or-nothing: a killed or throwing run may
// leave a stale `.tmp` behind but never a truncated file under the final
// name. AtomicOutFile is that one mechanism, and CsvWriter (util/csv.hpp)
// commits through it too: bytes accumulate in `path + ".tmp"`, close()
// commits with an atomic rename, and a destructor running during stack
// unwinding removes the partial temp file instead of publishing it.
#pragma once

#include <fstream>
#include <string>

namespace pds {

class AtomicOutFile {
 public:
  // Opens `path + ".tmp"` for writing. Throws std::runtime_error when the
  // temp file cannot be opened.
  explicit AtomicOutFile(const std::string& path);

  // Commits (close()) unless the destructor runs during stack unwinding, in
  // which case the partial temp file is removed. Never throws.
  ~AtomicOutFile();

  AtomicOutFile(const AtomicOutFile&) = delete;
  AtomicOutFile& operator=(const AtomicOutFile&) = delete;

  std::ostream& stream() { return out_; }

  // Flushes and atomically renames the temp file onto path(). Throws
  // std::runtime_error on write or rename failure (removing the temp file).
  // No-op when already closed; writing after close is a contract violation.
  void close();

  bool closed() const noexcept { return closed_; }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  int uncaught_at_ctor_;
  bool closed_ = false;
};

// One-shot convenience: writes `content` to `path + ".tmp"` and commits with
// an atomic rename. Throws std::runtime_error on failure.
void write_file_atomic(const std::string& path, const std::string& content);

}  // namespace pds
