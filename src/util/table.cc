#include "util/table.h"

#include <algorithm>

#include "util/check.h"

namespace dbsa {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  DBSA_CHECK(row.size() == header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

void TablePrinter::Print(std::FILE* out) const {
  std::vector<size_t> width(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::fprintf(out, "%s%-*s", c == 0 ? "  " : "  | ",
                   static_cast<int>(width[c]), row[c].c_str());
    }
    std::fprintf(out, "\n");
  };
  print_row(header_);
  size_t total = 2;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + (c == 0 ? 0 : 4);
  std::string sep(total, '-');
  std::fprintf(out, "  %s\n", sep.c_str() + 2);
  for (const auto& row : rows_) print_row(row);
}

void PrintBanner(const std::string& title) {
  std::string bar(title.size() + 10, '=');
  std::printf("\n%s\n==== %s ====\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

void PrintNote(const std::string& text) { std::printf("  %s\n", text.c_str()); }

}  // namespace dbsa
