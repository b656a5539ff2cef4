// reporting.hpp — shared table formatting for the bench/ and
// examples/ executables.  Every lain_bench experiment, Table 1
// included, builds a ReportTable; the text renderer keeps the column
// conventions consistent across E1 and E5–E12, and the CSV and JSON
// renderers make the same data scriptable from the unified lain_bench
// CLI.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lain::core {

enum class Align { kLeft, kRight };

// One column of a report: header plus text-rendering hints.
struct ColumnSpec {
  std::string header;
  int width = 10;
  Align align = Align::kRight;
};

// Writes `content` to `path` ("" or "-" means stdout).  Throws
// std::runtime_error when the file cannot be opened.  Shared by the
// bench CLIs behind their --out flags.
void write_output(const std::string& path, const std::string& content);

class ReportTable {
 public:
  ReportTable& add_column(std::string header, int width = 10,
                          Align align = Align::kRight);

  // Starts a new row; fill it with the cell() overloads below.
  ReportTable& begin_row();

  // Raw text cell (used verbatim in both text and CSV output).
  ReportTable& cell(std::string text);
  ReportTable& cell(const char* text) { return cell(std::string(text)); }
  // Fixed-precision numeric cell; CSV gets the full-precision value.
  ReportTable& cell(double value, int precision = 2);
  ReportTable& cell(std::int64_t value);
  ReportTable& cell(int value) {
    return cell(static_cast<std::int64_t>(value));
  }
  // Fraction rendered as a percentage ("42.0%"); CSV gets the fraction.
  ReportTable& cell_pct(double fraction, int precision = 1);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const { return columns_.size(); }

  // Space-padded fixed-width table with a header line.
  std::string to_text() const;
  // RFC-ish CSV: header row + one line per row, no padding.
  std::string to_csv() const;
  // JSON array of row objects keyed by column header; numeric cells
  // (cell(double)/cell(int64)/cell_pct) emit unquoted full-precision
  // numbers, text cells emit escaped strings.  Multi-experiment
  // pipelines consume this instead of scraping the text table.
  std::string to_json() const;

 private:
  struct Cell {
    std::string text;  // what the text renderer prints
    std::string csv;   // what the CSV renderer prints
    bool numeric = false;
  };

  // Adds `c` to the current row; every cell overload ends here.
  ReportTable& append(Cell c);

  std::vector<ColumnSpec> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace lain::core
