// test_reporting.cpp — the shared ReportTable text / CSV emitters.

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "core/reporting.hpp"

namespace lain {
namespace {

TEST(ReportTable, TextRenderingPadsAndAligns) {
  core::ReportTable t;
  t.add_column("scheme", 6, core::Align::kLeft)
      .add_column("mW", 8)
      .add_column("stby", 7);
  t.begin_row().cell("SC").cell(12.3456, 2).cell_pct(0.5, 1);
  t.begin_row().cell("SDPC").cell(7.0, 2).cell_pct(0.959, 1);
  EXPECT_EQ(t.to_text(),
            "scheme       mW    stby\n"
            "SC        12.35   50.0%\n"
            "SDPC       7.00   95.9%\n");
}

TEST(ReportTable, CsvKeepsRawValues) {
  core::ReportTable t;
  t.add_column("name").add_column("value").add_column("frac");
  t.begin_row().cell("a,b").cell(0.123456789, 2).cell_pct(0.25, 1);
  const std::string csv = t.to_csv();
  // Text rounding must not leak into CSV: full precision, fraction
  // (not percentage), and comma-containing cells quoted.
  EXPECT_EQ(csv, "name,value,frac\n\"a,b\",0.123456789,0.25\n");
}

TEST(ReportTable, IntegerAndCountHelpers) {
  core::ReportTable t;
  t.add_column("n", 4);
  t.begin_row().cell(static_cast<std::int64_t>(123456));
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.num_columns(), 1u);
  EXPECT_NE(t.to_text().find("123456"), std::string::npos);
}

TEST(ReportTable, MisuseThrows) {
  core::ReportTable t;
  EXPECT_THROW(t.cell("x"), std::logic_error);
  t.add_column("a");
  t.begin_row().cell("1");
  EXPECT_THROW(t.cell("overflow"), std::logic_error);
  EXPECT_THROW(t.add_column("late"), std::logic_error);
}

TEST(ReportTable, JsonEmitsTypedRowObjects) {
  core::ReportTable t;
  t.add_column("scheme").add_column("mW").add_column("stby").add_column("n");
  t.begin_row().cell("SC").cell(12.3456789, 2).cell_pct(0.25, 1).cell(
      std::int64_t{7});
  t.begin_row().cell("SD\"PC").cell(7.0, 2).cell_pct(0.959, 1).cell(
      std::int64_t{-3});
  EXPECT_EQ(t.to_json(),
            "[\n"
            " {\"scheme\": \"SC\", \"mW\": 12.3456789, \"stby\": 0.25, "
            "\"n\": 7},\n"
            " {\"scheme\": \"SD\\\"PC\", \"mW\": 7, \"stby\": 0.959, "
            "\"n\": -3}\n"
            "]\n");
}

TEST(ReportTable, JsonEmptyTableIsEmptyArray) {
  core::ReportTable t;
  t.add_column("a");
  EXPECT_EQ(t.to_json(), "[\n]\n");
}

TEST(WriteOutput, WritesFileAndReportsFailure) {
  const std::string path = ::testing::TempDir() + "lain_write_output.txt";
  core::write_output(path, "hello\n");
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_STREQ(buf, "hello\n");
  EXPECT_THROW(core::write_output("/nonexistent-dir/x/y.txt", "z"),
               std::runtime_error);
}

}  // namespace
}  // namespace lain
