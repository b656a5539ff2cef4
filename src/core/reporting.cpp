#include "core/reporting.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/json.hpp"

namespace lain::core {

namespace {

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

// CSV cells keep full precision so downstream tooling is not limited
// by the text table's display rounding.
std::string csv_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

ReportTable& ReportTable::add_column(std::string header, int width,
                                     Align align) {
  if (!rows_.empty())
    throw std::logic_error("add_column after rows were added");
  columns_.push_back(ColumnSpec{std::move(header), width, align});
  return *this;
}

ReportTable& ReportTable::begin_row() {
  if (!rows_.empty() && rows_.back().size() != columns_.size())
    throw std::logic_error("previous row is incomplete");
  rows_.emplace_back();
  return *this;
}

ReportTable& ReportTable::append(Cell c) {
  if (rows_.empty()) throw std::logic_error("cell before begin_row");
  if (rows_.back().size() >= columns_.size())
    throw std::logic_error("row has more cells than columns");
  rows_.back().push_back(std::move(c));
  return *this;
}

ReportTable& ReportTable::cell(std::string text) {
  std::string csv = csv_escape(text);
  return append(Cell{std::move(text), std::move(csv)});
}

ReportTable& ReportTable::cell(double value, int precision) {
  return append(Cell{format_double(value, precision), csv_double(value),
                     /*numeric=*/true});
}

ReportTable& ReportTable::cell(std::int64_t value) {
  const std::string s = std::to_string(value);
  return append(Cell{s, s, /*numeric=*/true});
}

ReportTable& ReportTable::cell_pct(double fraction, int precision) {
  return append(Cell{format_double(100.0 * fraction, precision) + "%",
                     csv_double(fraction), /*numeric=*/true});
}

std::string ReportTable::to_text() const {
  std::string out;
  auto pad = [&](const std::string& s, const ColumnSpec& col, bool last) {
    const int w = col.width;
    const int fill = w > static_cast<int>(s.size())
                         ? w - static_cast<int>(s.size())
                         : 0;
    if (col.align == Align::kRight) out.append(fill, ' ');
    out += s;
    if (col.align == Align::kLeft && !last) out.append(fill, ' ');
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) out += ' ';
    pad(columns_[c].header, columns_[c], c + 1 == columns_.size());
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ' ';
      pad(row[c].text, columns_[c], c + 1 == row.size());
    }
    out += '\n';
  }
  return out;
}

std::string ReportTable::to_json() const {
  std::string out = "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += r ? ",\n " : "\n ";
    out += '{';
    const auto& row = rows_[r];
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ", ";
      out += json_string(columns_[c].header);
      out += ": ";
      // Numeric cells reuse the CSV form: full precision, and %.9g
      // output is always a valid JSON number.
      out += row[c].numeric ? row[c].csv : json_string(row[c].text);
    }
    out += '}';
  }
  out += "\n]\n";
  return out;
}

void write_output(const std::string& path, const std::string& content) {
  if (path.empty() || path == "-") {
    std::fputs(content.c_str(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot open output file: " + path);
  }
  std::fputs(content.c_str(), f);
  std::fclose(f);
}

std::string ReportTable::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) out += ',';
    out += csv_escape(columns_[c].header);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      out += row[c].csv;
    }
    out += '\n';
  }
  return out;
}

}  // namespace lain::core
