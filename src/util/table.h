// Aligned-column table printing for benchmark output.
//
// Every bench binary prints the same rows/series the paper's figures report;
// this utility keeps that output readable and machine-parsable (CSV mode).
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace hls {

class table {
 public:
  explicit table(std::vector<std::string> header);

  table& add_row(std::vector<std::string> cells);

  // Formats a double with the given precision (fixed notation).
  static std::string fmt(double v, int precision = 3);
  // Scientific notation, as the paper's Fig. 4 hardware-count table uses.
  static std::string fmt_sci(double v, int precision = 2);
  static std::string fmt_pct(double fraction, int precision = 2);

  void print(std::ostream& os) const;       // aligned columns
  void print_csv(std::ostream& os) const;   // comma separated

  // JSON lines: one object per row keyed by the header, plus the given
  // extra key/value pairs on every object (e.g. the bench section name).
  // Cells that parse as JSON numbers are emitted unquoted, so downstream
  // tooling gets real numbers without scraping.
  void print_json(
      std::ostream& os,
      const std::vector<std::pair<std::string, std::string>>& extra = {})
      const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Writes s as a JSON string, quotes included: `"`, `\` and every control
// character are escaped, so any byte string (a file path, a loop label)
// prints as valid JSON. The one string writer of every JSON emitter.
void json_string(std::ostream& os, const std::string& s);

}  // namespace hls
