#include "experiments/report.h"

#include <algorithm>

namespace unimem::exp {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Report::print(std::FILE* out) const {
  std::fprintf(out, "\n== %s ==\n", title_.c_str());

  std::vector<std::size_t> width(header_.size(), 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size() && i < width.size(); ++i)
      width[i] = std::max(width[i], row[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i)
      std::fprintf(out, "%-*s  ", static_cast<int>(i < width.size() ? width[i] : 8),
                   row[i].c_str());
    std::fputc('\n', out);
  };
  print_row(header_);
  for (std::size_t i = 0; i < width.size(); ++i)
    std::fprintf(out, "%s  ", std::string(width[i], '-').c_str());
  std::fputc('\n', out);
  for (const auto& r : rows_) print_row(r);
}

}  // namespace unimem::exp
