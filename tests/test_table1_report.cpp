// test_table1_report.cpp — Table 1 as data: the one derivation of its
// rows (make_table1) and the one renderer (table1_report), pinned to
// the paper's layout; only Report.Table1ContainsAllRowsAndSchemes
// characterizes anything.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table1.hpp"

namespace lain::core {
namespace {

using xbar::Scheme;

TEST(Table1Report, TextMatchesThePaperLayout) {
  // Fixed rows: DFC's zero penalty must read "No", SC's relative cells
  // "-".
  const Table1 t{{{
      {Scheme::kSC, 61.25, 53.65, 0.0, 0.0, 3, 174.49, 0.0},
      {Scheme::kDFC, 56.41, 57.97, 0.0981, 0.2407, 2, 165.60, 0.0},
      {Scheme::kDPC, 61.81, 55.10, 0.5630, 0.8622, 1, 164.40, 0.0091},
      {Scheme::kSDFC, 77.70, 83.34, 0.3925, 0.6219, 2, 146.83, 0.3606},
      {Scheme::kSDPC, 71.78, 66.62, 0.7127, 0.8920, 1, 206.14, 0.1718},
  }}};
  // Written from the paper-layout format strings: "%-38s" labels, then
  // "%10s" / "%10.2f" / "%9.2f%%" / "%10d" cells.  The 39-character
  // label overflows its column by one and pushes its row right.
  const std::string expected =
      "Scheme                                "
      "        SC       DFC       DPC      SDFC      SDPC\n"
      "High to Low delay time (ps)           "
      "     61.25     56.41     61.81     77.70     71.78\n"
      "Low to High / Precharge delay time (ps)"
      "     53.65     57.97     55.10     83.34     66.62\n"
      "Active Leakage Savings                "
      "         -     9.81%    56.30%    39.25%    71.27%\n"
      "Standby Leakage Savings               "
      "         -    24.07%    86.22%    62.19%    89.20%\n"
      "Minimum Idle Time - 3GHz (cycles)     "
      "         3         2         1         2         1\n"
      "Total Power - 3GHz (mW)               "
      "    174.49    165.60    164.40    146.83    206.14\n"
      "Delay Penalty                         "
      "         -        No     0.91%    36.06%    17.18%\n";
  EXPECT_EQ(table1_report(t).to_text(), expected);
}

TEST(Report, PenaltyFormatting) {
  // A penalty at or below 1e-9 reads "No"; any other is a two-decimal
  // percentage.  SC's cell reads "-".
  const Table1 t{{{
      {Scheme::kSC, 0, 0, 0, 0, 0, 0, 0.0},
      {Scheme::kDFC, 0, 0, 0, 0, 0, 0, 0.0},
      {Scheme::kDPC, 0, 0, 0, 0, 0, 0, 1e-12},
      {Scheme::kSDFC, 0, 0, 0, 0, 0, 0, 0.0469},
      {Scheme::kSDPC, 0, 0, 0, 0, 0, 0, 0.0228},
  }}};
  std::istringstream text(table1_report(t).to_text());
  std::string line;
  std::string penalty;
  while (std::getline(text, line)) {
    if (line.rfind("Delay Penalty", 0) == 0) penalty = line;
  }
  EXPECT_EQ(penalty,
            "Delay Penalty                         "
            "         -        No        No     4.69%     2.28%");
}

TEST(Report, Table1ContainsAllRowsAndSchemes) {
  // The characterized table at the paper's design point.
  const std::string t = table1_report(make_table1()).to_text();
  for (const char* label :
       {"High to Low delay", "Low to High / Precharge", "Active Leakage",
        "Standby Leakage", "Minimum Idle Time", "Total Power",
        "Delay Penalty"}) {
    EXPECT_NE(t.find(label), std::string::npos) << label;
  }
  for (const char* s : {"SC", "DFC", "DPC", "SDFC", "SDPC"}) {
    EXPECT_NE(t.find(s), std::string::npos) << s;
  }
}

TEST(Table1Report, MakeTable1TakesTheFiveSchemesScFirst) {
  // Only the scheme order is checked before any row is derived.
  auto with_schemes = [](std::vector<Scheme> schemes) {
    std::vector<xbar::Characterization> chars(schemes.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      chars[i].scheme = schemes[i];
    }
    return chars;
  };
  EXPECT_THROW(make_table1(std::vector<xbar::Characterization>{}),
               std::invalid_argument);
  EXPECT_THROW(make_table1(with_schemes({Scheme::kDFC})),
               std::invalid_argument);
  EXPECT_THROW(make_table1(with_schemes({Scheme::kSC, Scheme::kDFC,
                                         Scheme::kDPC, Scheme::kSDFC})),
               std::invalid_argument);
  EXPECT_THROW(make_table1(with_schemes({Scheme::kDFC, Scheme::kSC,
                                         Scheme::kDPC, Scheme::kSDFC,
                                         Scheme::kSDPC})),
               std::invalid_argument);
}

}  // namespace
}  // namespace lain::core
