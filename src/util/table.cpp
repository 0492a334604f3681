#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace hls {

table::table(std::vector<std::string> header) : header_(std::move(header)) {}

table& table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string table::fmt_sci(double v, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << v;
  return os.str();
}

std::string table::fmt_pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << "%";
  return os.str();
}

void table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit(header_);
  std::string rule;
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule.append(widths[c] + 2, '-');
  }
  os << rule << '\n';
  for (const auto& row : rows_) emit(row);
}

namespace {

// JSON-lexable number: [-]digits[.digits][(e|E)[+-]digits]. Stricter than
// strtod on purpose — "nan", "inf", and hex would not be valid JSON.
bool is_json_number(const std::string& s) {
  std::size_t i = 0;
  if (i < s.size() && s[i] == '-') ++i;
  std::size_t int_digits = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++int_digits;
  if (int_digits == 0) return false;
  if (i < s.size() && s[i] == '.') {
    ++i;
    std::size_t frac_digits = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++frac_digits;
    if (frac_digits == 0) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    std::size_t exp_digits = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++exp_digits;
    if (exp_digits == 0) return false;
  }
  return i == s.size();
}

}  // namespace

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

void json_value(std::ostream& os, const std::string& s) {
  if (is_json_number(s)) {
    os << s;
  } else {
    json_string(os, s);
  }
}

}  // namespace

void table::print_json(
    std::ostream& os,
    const std::vector<std::pair<std::string, std::string>>& extra) const {
  for (const auto& row : rows_) {
    os << '{';
    bool first = true;
    for (const auto& [k, v] : extra) {
      if (!first) os << ',';
      first = false;
      json_string(os, k);
      os << ':';
      json_value(os, v);
    }
    for (std::size_t c = 0; c < header_.size() && c < row.size(); ++c) {
      if (!first) os << ',';
      first = false;
      json_string(os, header_[c]);
      os << ':';
      json_value(os, row[c]);
    }
    os << "}\n";
  }
}

void table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

}  // namespace hls
