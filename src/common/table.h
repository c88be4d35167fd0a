// Plain-text table rendering for the benchmark harnesses.
//
// Every bench binary regenerates one of the paper's tables or figures and
// prints it in a fixed-width layout so results can be eyeballed against the
// paper and diffed across runs.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace hpcos {

enum class Align { kLeft, kRight };

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  // Append a row; missing cells render empty, extra cells are an error.
  void add_row(std::vector<std::string> cells);

  // Formatting helpers for numeric cells.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_sci(double v, int precision = 2);
  static std::string fmt_int(long long v);
  static std::string fmt_percent(double fraction, int precision = 1);

  void set_align(std::size_t column, Align a);

  // Render with a header rule and column padding.
  void print(std::ostream& os) const;
  std::string to_string() const;

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<Align> align_;
};

// Section banner used by the bench binaries ("=== Table 2: ... ===").
void print_banner(std::ostream& os, const std::string& title);

}  // namespace hpcos
