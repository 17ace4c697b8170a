// Shared lexer of the line-oriented input grammars: scenarios
// (net/scenario.hpp), fault plans (fault/fault_plan.hpp) and control plans
// (ctrl/control_plan.hpp), plus the number rules the command-line flags
// (util/args.hpp) share with them.
//
// A line splits on whitespace; a token that starts with '#' comments out
// the rest of the line, and lines without tokens are skipped. After a
// directive's positional tokens come key=value options, read through
// LineOptions; a bare token there is a flag (`poisson`). One rule set
// serves all three grammars, and every error is a std::invalid_argument
// prefixed "<grammar> line N: ", so malformed input always names its line:
//
//   - numbers must parse completely ("malformed number: X") and be finite
//     ("number must be finite, got X");
//   - integers must be whole and inside the field's type, never truncated
//     or wrapped ("<key> must be an integer in [lo, hi]"); a plain integer
//     literal is read exactly, other forms ("1e3") as a number;
//   - a list element may not be empty ("empty element in <key>");
//   - a bare token nobody consumed reports "expected key=value, got X",
//     and a key nobody read reports "unknown option <key>".
//
// The number rules are the free read_* functions below. Each returns the
// value or calls `fail(complaint)`, which must throw; the caller's `fail`
// says where the token came from (a grammar line, a --flag).
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace pds {

// `v` as a T when it is a whole number in [lo, hi]; nullopt for fractions,
// NaN and anything outside the range.
template <typename T>
std::optional<T> whole_number(double v, T lo = 0,
                              T hi = std::numeric_limits<T>::max()) {
  // `hi` may round up when converted (2^64 - 1 becomes 2^64); the exclusive
  // 2^digits bound keeps the cast below defined.
  if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi) &&
        v < std::ldexp(1.0, std::numeric_limits<T>::digits)) ||
      v != std::floor(v)) {
    return std::nullopt;
  }
  return static_cast<T>(v);
}

// `raw` as a finite double; the whole token must parse.
template <typename Fail>
double read_number(const std::string& raw, const Fail& fail) {
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end != raw.c_str() + raw.size()) {
    fail("malformed number: " + raw);
  }
  if (!std::isfinite(v)) fail("number must be finite, got " + raw);
  return v;
}

// `raw` as a T in [lo, hi]; `name` is the subject of the range complaint.
// An integer literal is read exactly (no rounding through double above
// 2^53); any other form must be a finite, whole number.
template <typename T, typename Fail>
T read_integer(const std::string& raw, const std::string& name, T lo, T hi,
               const Fail& fail) {
  using Wide = std::conditional_t<std::is_signed_v<T>, long long,
                                  unsigned long long>;
  const auto range = [&] {
    fail(name + " must be an integer in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  };
  Wide wide = 0;
  const char* last = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), last, wide);
  if (ptr == last && !raw.empty()) {
    if (ec != std::errc() || wide < static_cast<Wide>(lo) ||
        wide > static_cast<Wide>(hi)) {
      range();
    }
    return static_cast<T>(wide);
  }
  const auto n = whole_number<T>(read_number(raw, fail), lo, hi);
  if (!n) range();
  return *n;
}

// Comma-separated finite numbers ("1,2,4,8"); `name` is the subject of the
// empty-element complaint.
template <typename Fail>
std::vector<double> read_list(const std::string& raw, const std::string& name,
                              const Fail& fail) {
  std::vector<double> out;
  std::size_t start = 0;
  while (true) {
    const auto comma = raw.find(',', start);
    const auto item = raw.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (item.empty()) fail("empty element in " + name);
    out.push_back(read_number(item, fail));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

class LineLexer {
 public:
  // `grammar` names the input in error messages ("scenario", "fault plan",
  // "control plan"). The text must outlive the lexer.
  LineLexer(const std::string& text, std::string grammar)
      : text_(text), grammar_(std::move(grammar)) {}

  // Advances to the next line that has tokens; false at the end of the text.
  bool next();

  const std::vector<std::string>& tokens() const noexcept { return tokens_; }
  std::size_t line_no() const noexcept { return line_no_; }

  // Throw std::invalid_argument("<grammar> line N: <msg>") for the current
  // line, or for an earlier `line` (checks that need the whole text).
  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(line_no_, msg);
  }
  [[noreturn]] void fail_at(std::size_t line, const std::string& msg) const;

  // `raw` as a finite number; fails on anything else.
  double number(const std::string& raw) const;

 private:
  const std::string& text_;
  std::string grammar_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
  std::vector<std::string> tokens_;
};

// The key=value options (and bare flags) of the lexer's current line, from
// token `first` on. Each getter consumes what it reads; finish() rejects
// whatever is left.
class LineOptions {
 public:
  LineOptions(const LineLexer& lexer, std::size_t first);

  // Consumes the bare token `name`; false when the line has none.
  bool flag(const std::string& name);

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::optional<std::string> take(const std::string& key);
  std::string require(const std::string& key);  // "missing required option"
  double number(const std::string& key);
  double number_or(const std::string& key, double def);
  // Comma-separated numbers ("1,2,4,8"); required.
  std::vector<double> list(const std::string& key);
  // A list of positive, non-decreasing numbers (SDPs, weights).
  std::vector<double> weights(const std::string& key);

  template <typename T>
  T integer(const std::string& key, T lo = 0,
            T hi = std::numeric_limits<T>::max()) {
    return read_integer<T>(require(key), key, lo, hi,
                           [this](const std::string& m) { fail(m); });
  }
  template <typename T>
  T integer_or(const std::string& key, T def, T lo = 0,
               T hi = std::numeric_limits<T>::max()) {
    return has(key) ? integer(key, lo, hi) : def;
  }

  // Fails on the first token nobody read: a bare one, then an unknown key.
  void finish() const;

  [[noreturn]] void fail(const std::string& msg) const { lexer_.fail(msg); }

 private:
  const LineLexer& lexer_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> flags_;
};

}  // namespace pds
