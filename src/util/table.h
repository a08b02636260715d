// Aligned-column table printer for the benchmark harnesses. Every figure /
// table bench prints its series through this so outputs are uniform and
// easy to diff against the paper.

#ifndef DBSA_UTIL_TABLE_H_
#define DBSA_UTIL_TABLE_H_

#include <cstdio>
#include <string>
#include <vector>

namespace dbsa {

/// Collects rows of strings and prints them with aligned columns.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Formats a double with %.*g.
  static std::string Num(double v, int precision = 5);

  /// Prints the table (header, separator, rows) to the stream.
  void Print(std::FILE* out = stdout) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner ("==== title ====") for bench output.
void PrintBanner(const std::string& title);

/// Prints an indented note line.
void PrintNote(const std::string& text);

}  // namespace dbsa

#endif  // DBSA_UTIL_TABLE_H_
