#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hpcos {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)), align_(headers_.size(), Align::kRight) {
  if (headers_.empty()) {
    throw std::invalid_argument("TextTable: need at least one column");
  }
  align_[0] = Align::kLeft;
}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("TextTable: row has more cells than columns");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string TextTable::fmt_sci(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*E", precision, v);
  return buf;
}

std::string TextTable::fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", v);
  return buf;
}

std::string TextTable::fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void TextTable::set_align(std::size_t column, Align a) {
  align_.at(column) = a;
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const auto pad = widths[c] - row[c].size();
      os << (c == 0 ? "| " : " ");
      if (align_[c] == Align::kRight) os << std::string(pad, ' ');
      os << row[c];
      if (align_[c] == Align::kLeft) os << std::string(pad, ' ');
      os << " |";
    }
    os << "\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
}

std::string TextTable::to_string() const {
  std::ostringstream oss;
  print(oss);
  return oss.str();
}

void print_banner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

}  // namespace hpcos
