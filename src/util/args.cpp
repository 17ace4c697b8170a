#include "util/args.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pds {

namespace {

bool looks_like_key(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

// Classic two-row Levenshtein; the key sets here are tiny.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (!looks_like_key(tok)) {
      throw std::invalid_argument("unexpected positional argument: " + tok);
    }
    tok = tok.substr(2);
    std::string key;
    std::string value;
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      key = tok.substr(0, eq);
      value = tok.substr(eq + 1);
    } else {
      key = tok;
      // `--key value` form: consume the next token iff it is not a key.
      if (i + 1 < argc && !looks_like_key(argv[i + 1])) {
        value = argv[++i];
      }
    }
    PDS_CHECK(!key.empty(), "empty option name");
    if (values_.find(key) == values_.end()) order_.push_back(key);
    values_[key] = value;  // last occurrence wins
  }
}

bool ArgParser::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::string> ArgParser::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_string(const std::string& key,
                                  std::string def) const {
  const auto v = raw(key);
  return v ? *v : def;
}

double ArgParser::get_double(const std::string& key, double def) const {
  const auto v = raw(key);
  return v ? read_number(*v, flag_failure(key)) : def;
}

bool ArgParser::get_bool(const std::string& key, bool def) const {
  const auto v = raw(key);
  if (!v) return def;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("--" + key + ": not a boolean: " + *v);
}

std::vector<double> ArgParser::get_double_list(
    const std::string& key, std::vector<double> def) const {
  const auto v = raw(key);
  return v ? read_list(*v, "the list", flag_failure(key)) : def;
}

std::uint32_t ArgParser::get_jobs() const {
  if (has("jobs")) return get_int<std::uint32_t>("jobs", 0);
  const char* env = std::getenv("PDS_JOBS");
  if (env == nullptr) return 0;
  return read_integer<std::uint32_t>(
      env, "value", 0, std::numeric_limits<std::uint32_t>::max(),
      [](const std::string& complaint) {
        throw std::invalid_argument("PDS_JOBS: " + complaint);
      });
}

std::vector<std::string> ArgParser::unknown_keys(
    const std::vector<std::string>& allowed) const {
  std::vector<std::string> out;
  for (const auto& k : order_) {
    if (std::find(allowed.begin(), allowed.end(), k) == allowed.end()) {
      out.push_back(k);
    }
  }
  return out;
}

void ArgParser::require_known(
    const std::vector<std::string>& allowed) const {
  const auto unknown = unknown_keys(allowed);
  if (unknown.empty()) return;
  const std::string& key = unknown.front();
  std::string msg = "unknown option --" + key;
  std::size_t best = 3;  // only hint within edit distance 2
  const std::string* hint = nullptr;
  for (const auto& candidate : allowed) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best) {
      best = d;
      hint = &candidate;
    }
  }
  if (hint != nullptr) msg += " (did you mean --" + *hint + "?)";
  throw UsageError(msg);
}

}  // namespace pds
