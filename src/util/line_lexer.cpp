#include "util/line_lexer.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace pds {

bool LineLexer::next() {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (pos_ < text_.size()) {
    const std::size_t newline = text_.find('\n', pos_);
    const std::size_t end =
        newline == std::string::npos ? text_.size() : newline;
    std::size_t i = pos_;
    pos_ = newline == std::string::npos ? text_.size() : newline + 1;
    ++line_no_;
    tokens_.clear();
    while (true) {
      while (i < end && is_space(text_[i])) ++i;
      if (i == end || text_[i] == '#') break;  // end of line or comment
      const std::size_t start = i;
      while (i < end && !is_space(text_[i])) ++i;
      tokens_.emplace_back(text_, start, i - start);
    }
    if (!tokens_.empty()) return true;
  }
  return false;
}

void LineLexer::fail_at(std::size_t line, const std::string& msg) const {
  throw std::invalid_argument(grammar_ + " line " + std::to_string(line) +
                              ": " + msg);
}

double LineLexer::number(const std::string& raw) const {
  return read_number(raw, [this](const std::string& m) { fail(m); });
}

LineOptions::LineOptions(const LineLexer& lexer, std::size_t first)
    : lexer_(lexer) {
  const auto& tokens = lexer.tokens();
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const auto& tok = tokens[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      flags_.push_back(tok);
    } else {
      values_[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
}

bool LineOptions::flag(const std::string& name) {
  const auto it = std::find(flags_.begin(), flags_.end(), name);
  if (it == flags_.end()) return false;
  flags_.erase(it);
  return true;
}

std::optional<std::string> LineOptions::take(const std::string& key) {
  auto node = values_.extract(key);
  if (node.empty()) return std::nullopt;
  return std::move(node.mapped());
}

std::string LineOptions::require(const std::string& key) {
  auto v = take(key);
  if (!v) fail("missing required option " + key + "=...");
  return std::move(*v);
}

double LineOptions::number(const std::string& key) {
  return lexer_.number(require(key));
}

double LineOptions::number_or(const std::string& key, double def) {
  return has(key) ? number(key) : def;
}

std::vector<double> LineOptions::list(const std::string& key) {
  return read_list(require(key), key,
                   [this](const std::string& m) { fail(m); });
}

std::vector<double> LineOptions::weights(const std::string& key) {
  std::vector<double> out = list(key);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] <= 0.0) fail(key + " values must be positive");
    if (i > 0 && out[i] < out[i - 1]) {
      fail(key + " values must be non-decreasing");
    }
  }
  return out;
}

void LineOptions::finish() const {
  if (!flags_.empty()) fail("expected key=value, got " + flags_.front());
  if (!values_.empty()) fail("unknown option " + values_.begin()->first);
}

}  // namespace pds
