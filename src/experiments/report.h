// Minimal fixed-width table printer, so every paper figure/table prints
// rows in the same aligned format the paper's tables use.  The sweep
// specs' pivots (src/sweep/spec.h) build these; machine-readable output
// is the sweep result store's CSV/JSONL, not a Report.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace unimem::exp {

/// Minimal JSON string escaping (quotes, backslash, control chars) —
/// shared by the sweep result store and perfbench's row writer.
std::string json_escape(const std::string& s);

class Report {
 public:
  explicit Report(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> cols) { header_ = std::move(cols); }
  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  const std::string& title() const { return title_; }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Format helper: fixed-precision double.
  static std::string num(double v, int prec = 2) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", prec, v);
    return buf;
  }

  /// Aligned table to `out`.
  void print(std::FILE* out = stdout) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace unimem::exp
