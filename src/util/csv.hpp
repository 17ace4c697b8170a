// Tiny CSV writer used by the microscopic-view benches (Figures 4 and 5) to
// dump per-packet and per-window delay series for external plotting.
//
// Crash-safe through AtomicOutFile (util/atomic_file.hpp): rows accumulate
// in `path + ".tmp"` and close() (or the destructor) commits the finished
// file onto `path` with an atomic rename. An interrupted or killed run
// therefore never leaves a truncated CSV under the final name — at worst a
// stale .tmp, which the next run overwrites. When the writer is destroyed
// by stack unwinding (an exception in flight) the partial temp file is
// removed instead of committed.
#pragma once

#include <string>
#include <vector>

#include "util/atomic_file.hpp"

namespace pds {

class CsvWriter {
 public:
  // Opens `path + ".tmp"` for writing and emits the header row. Throws
  // std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void add_row(const std::vector<double>& values);
  void add_row(const std::vector<std::string>& values);

  // Flushes and atomically renames the temp file onto path(). Throws
  // std::runtime_error on write or rename failure (removing the temp file).
  // Further add_row calls are invalid. No-op when already closed.
  void close() { out_.close(); }

  const std::string& path() const { return out_.path(); }

 private:
  template <typename T>
  void write_row(const std::vector<T>& values);

  AtomicOutFile out_;
  std::size_t columns_;
};

}  // namespace pds
