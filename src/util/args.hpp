// Minimal command-line argument parser for the bench and example binaries.
//
// Supports `--key=value`, `--key value`, and boolean `--flag` forms. Unknown
// keys are collected so callers can reject typos. Values are converted on
// access with a caller-supplied default, under the number rules the input
// grammars use (util/line_lexer.hpp): a number must parse completely and be
// finite, list elements included, and an integer must be whole and inside
// its destination type. A bad value throws std::invalid_argument naming its
// flag ("--users: value must be an integer in [1, 4294967295]").
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/line_lexer.hpp"

namespace pds {

// Thrown by ArgParser::require_known for unknown --flags. Mains catch this,
// print what() plus their usage text, and exit with code 2 (usage error),
// distinct from exit 1 for runtime failures.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Largest worker count the experiment engine accepts. --jobs and PDS_JOBS
// are bounded by it, ThreadPool::resolve_workers rejects a larger request
// before any thread starts, and the hardware default is clamped to it.
inline constexpr std::uint32_t kMaxJobs = 256;

// The PDS_JOBS environment variable as a worker count in [0, kMaxJobs]; 0
// when unset. The one reader of the variable (ArgParser::get_jobs and
// ThreadPool::resolve_workers both call it), under the read_integer rule;
// a bad value throws std::invalid_argument("PDS_JOBS: ...").
std::uint32_t jobs_from_env();

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  // True if `--key` appeared at all (with or without a value).
  bool has(const std::string& key) const;

  // Typed access; returns `def` when the key is absent. Throws
  // std::invalid_argument when the value cannot be converted.
  std::string get_string(const std::string& key, std::string def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  // An integer of the destination type T, bounded to [lo, hi] (by default
  // T's whole range): never truncated, wrapped or rounded.
  template <typename T = std::int64_t>
  T get_int(const std::string& key, std::type_identity_t<T> def,
            std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) const {
    const auto v = raw(key);
    if (!v) return def;
    return read_integer<T>(*v, "value", lo, hi, flag_failure(key));
  }

  // Comma-separated list of doubles, e.g. `--sdp=1,2,4,8`.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def) const;

  // Worker count for the experiment engine, in [0, kMaxJobs]: `--jobs`
  // when given, else jobs_from_env(). 0 means "auto" — the thread pool
  // resolves it to hardware_concurrency. Callers pass the result to
  // ThreadPool::set_global_workers and list "jobs" among their recognized
  // keys.
  std::uint32_t get_jobs() const;

  // Keys seen on the command line, in order of first appearance.
  const std::vector<std::string>& keys() const { return order_; }

  // Returns the keys that are not in `allowed` (for typo detection).
  std::vector<std::string> unknown_keys(
      const std::vector<std::string>& allowed) const;

  // Throws UsageError naming the first unknown key, with a
  // "(did you mean --X?)" hint when an allowed key is within edit
  // distance 2. No-op when every key is allowed.
  void require_known(const std::vector<std::string>& allowed) const;

 private:
  std::optional<std::string> raw(const std::string& key) const;

  // The `fail` of the shared number readers: prefixes the flag.
  static auto flag_failure(const std::string& key) {
    return [&key](const std::string& complaint) {
      throw std::invalid_argument("--" + key + ": " + complaint);
    };
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace pds
