// table1.hpp — the paper's Table 1, regenerated.
//
// Table 1 as data: one row per scheme, derived in one place
// (make_table1) from the five schemes' characterizations, next to the
// values the paper publishes.  table1_report lays the rows out in the
// paper's orientation as a ReportTable, so the table prints as text,
// CSV or JSON like every other lain_bench table; format_comparison
// renders the paper-vs-measured section.  `lain_bench table1`
// characterizes through its session (measured_table1 in
// core/bench_suite.hpp); make_table1(spec) is the context-free path.

#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/reporting.hpp"
#include "xbar/characterize.hpp"

namespace lain::core {

struct Table1Row {
  xbar::Scheme scheme;
  double delay_hl_ps;
  double delay_lh_ps;
  double active_saving;   // fraction; NaN-free: 0 for SC
  double standby_saving;  // fraction
  int min_idle_cycles;
  double total_power_mw;
  double delay_penalty;   // fraction, 0 = "No"
};

struct Table1 {
  std::array<Table1Row, 5> rows;  // SC, DFC, DPC, SDFC, SDPC
};

// The table from the five schemes' characterizations, in
// xbar::all_schemes() order (SC, the baseline, first).  Throws
// std::invalid_argument for any other list.
Table1 make_table1(const std::vector<xbar::Characterization>& chars);

// Characterizes the five schemes at `spec` (default: the paper's
// design point), uncached, and builds the table from them.
Table1 make_table1(const xbar::CrossbarSpec& spec = xbar::table1_spec());

// The values published in the paper, for comparison (same row order).
const std::array<Table1Row, 5>& paper_table1();

// The table in the paper's orientation: one row per metric, one
// column per scheme.  SC's saving and penalty cells read "-", and a
// zero penalty reads "No"; CSV and JSON carry the fractions.
ReportTable table1_report(const Table1& t);

// Renders a paper-vs-measured comparison.
std::string format_comparison(const Table1& measured);

}  // namespace lain::core
