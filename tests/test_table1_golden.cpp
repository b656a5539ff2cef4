// Golden test: the regenerated Table 1 must reproduce the paper's
// *shape* — who wins, by roughly what factor, where penalties appear.
// Absolute tolerances reflect the calibration (src/xbar/spec.hpp): the
// SC baseline column is matched tightly; per-scheme deltas emerge from
// circuit structure and are checked against bands.  `lain_bench
// table1` prints the full paper-vs-measured comparison.

#include <gtest/gtest.h>

#include "core/table1.hpp"

namespace lain::core {
namespace {

using xbar::Scheme;

class Table1Golden : public ::testing::Test {
 protected:
  static const Table1& table() {
    static const Table1 t = make_table1();
    return t;
  }
  static const Table1Row& row(Scheme s) {
    for (const auto& r : table().rows) {
      if (r.scheme == s) return r;
    }
    throw std::logic_error("scheme missing");
  }
};

TEST_F(Table1Golden, ScBaselineDelaysMatchPaper) {
  // SC column is the calibration anchor: within 3 %.
  EXPECT_NEAR(row(Scheme::kSC).delay_hl_ps, 61.40, 0.03 * 61.40);
  EXPECT_NEAR(row(Scheme::kSC).delay_lh_ps, 54.87, 0.03 * 54.87);
  // HL slower than LH (keeper contention), as in the paper.
  EXPECT_GT(row(Scheme::kSC).delay_hl_ps, row(Scheme::kSC).delay_lh_ps);
}

TEST_F(Table1Golden, ScTotalPowerMatchesPaper) {
  // 182.81 mW in the paper; modeled within 10 %.
  EXPECT_NEAR(row(Scheme::kSC).total_power_mw, 182.81, 0.10 * 182.81);
}

TEST_F(Table1Golden, DfcIsFasterOnHlSlowerOnLh) {
  // The weak high-Vt keeper relieves contention: DFC beats SC on HL
  // and pays on LH — the paper's signature DFC behavior.
  EXPECT_LT(row(Scheme::kDFC).delay_hl_ps, row(Scheme::kSC).delay_hl_ps);
  EXPECT_GT(row(Scheme::kDFC).delay_lh_ps, row(Scheme::kSC).delay_lh_ps);
}

TEST_F(Table1Golden, ActiveSavingsOrdering) {
  // Paper: DFC (10.13%) < SDFC (42.09%) ~ DPC (43.7%) < SDPC (63.57%).
  const double dfc = row(Scheme::kDFC).active_saving;
  const double dpc = row(Scheme::kDPC).active_saving;
  const double sdfc = row(Scheme::kSDFC).active_saving;
  const double sdpc = row(Scheme::kSDPC).active_saving;
  EXPECT_LT(dfc, sdfc);
  EXPECT_LT(dfc, dpc);
  EXPECT_LT(sdfc, sdpc);
  EXPECT_LT(dpc, sdpc);
  // Bands.
  EXPECT_NEAR(dfc, 0.1013, 0.05);   // small, ~10 %
  EXPECT_NEAR(sdfc, 0.4209, 0.10);  // ~40 %
  EXPECT_NEAR(dpc, 0.4370, 0.15);   // ~45-55 %
  EXPECT_NEAR(sdpc, 0.6357, 0.12);  // ~60-70 %
}

TEST_F(Table1Golden, StandbySavingsOrdering) {
  // Paper: DFC (12.36%) < SDFC (43.91%) < DPC (93.68%) < SDPC (95.96%).
  const double dfc = row(Scheme::kDFC).standby_saving;
  const double dpc = row(Scheme::kDPC).standby_saving;
  const double sdfc = row(Scheme::kSDFC).standby_saving;
  const double sdpc = row(Scheme::kSDPC).standby_saving;
  EXPECT_LT(dfc, sdfc);
  EXPECT_LT(sdfc, dpc);
  EXPECT_LT(dpc, sdpc);
  // Precharged schemes reach deep standby savings (> 80 %).
  EXPECT_GT(dpc, 0.80);
  EXPECT_GT(sdpc, 0.85);
  // Feedback-only DFC stays shallow (< 35 %).
  EXPECT_LT(dfc, 0.35);
}

TEST_F(Table1Golden, MinimumIdleTime) {
  // Paper row: SC 3, DFC 2, DPC 1, SDFC 3, SDPC 1.
  EXPECT_EQ(row(Scheme::kSC).min_idle_cycles, 3);
  EXPECT_EQ(row(Scheme::kDFC).min_idle_cycles, 2);
  EXPECT_EQ(row(Scheme::kDPC).min_idle_cycles, 1);
  EXPECT_EQ(row(Scheme::kSDPC).min_idle_cycles, 1);
  // SDFC: paper says 3; the model lands within one cycle.
  EXPECT_NEAR(row(Scheme::kSDFC).min_idle_cycles, 3, 1);
}

TEST_F(Table1Golden, DelayPenaltyOnlyForSegmented) {
  EXPECT_DOUBLE_EQ(row(Scheme::kSC).delay_penalty, 0.0);
  EXPECT_DOUBLE_EQ(row(Scheme::kDFC).delay_penalty, 0.0);
  EXPECT_LT(row(Scheme::kDPC).delay_penalty, 0.02);
  EXPECT_GT(row(Scheme::kSDFC).delay_penalty, 0.0);
  EXPECT_GT(row(Scheme::kSDPC).delay_penalty, 0.0);
  // And SDPC pays less than SDFC (paper: 2.28 % vs 4.69 %).
  EXPECT_LT(row(Scheme::kSDPC).delay_penalty,
            row(Scheme::kSDFC).delay_penalty);
}

TEST_F(Table1Golden, TotalPowerShape) {
  // SDFC is the cheapest scheme overall (paper: 122.18 mW), and every
  // feedback/dual-Vt scheme beats the SC baseline.
  const double sc = row(Scheme::kSC).total_power_mw;
  EXPECT_LT(row(Scheme::kSDFC).total_power_mw,
            row(Scheme::kDFC).total_power_mw);
  EXPECT_LT(row(Scheme::kDFC).total_power_mw, sc);
  EXPECT_LT(row(Scheme::kDPC).total_power_mw, sc);
  // Abstract's headline: savings span ~10 % to ~64 % (active) and up
  // to ~96 % (standby) across schemes.
  EXPECT_GT(row(Scheme::kSDPC).standby_saving, 0.85);
}

TEST_F(Table1Golden, SegmentationAblationClaims) {
  // Prose claim: segmentation reduces leakage further vs the flat
  // variants ("20% and 30% more in SDFC and SDPC").
  const double dfc_leak = 1.0 - row(Scheme::kDFC).active_saving;
  const double sdfc_leak = 1.0 - row(Scheme::kSDFC).active_saving;
  EXPECT_LT(sdfc_leak, dfc_leak * 0.85);  // at least ~15 % further cut
  const double dpc_stby = 1.0 - row(Scheme::kDPC).standby_saving;
  const double sdpc_stby = 1.0 - row(Scheme::kSDPC).standby_saving;
  EXPECT_LT(sdpc_stby, dpc_stby);
}

TEST_F(Table1Golden, PaperTableTranscription) {
  const auto& paper = paper_table1();
  EXPECT_EQ(paper[0].scheme, Scheme::kSC);
  EXPECT_DOUBLE_EQ(paper[0].total_power_mw, 182.81);
  EXPECT_DOUBLE_EQ(paper[2].standby_saving, 0.9368);
  EXPECT_DOUBLE_EQ(paper[4].active_saving, 0.6357);
  EXPECT_EQ(paper[3].min_idle_cycles, 3);
}

TEST_F(Table1Golden, FormattedOutputs) {
  const std::string text = table1_report(table()).to_text();
  EXPECT_NE(text.find("SC"), std::string::npos);
  EXPECT_NE(text.find("Minimum Idle Time"), std::string::npos);
  const std::string cmp = format_comparison(table());
  EXPECT_NE(cmp.find("SDPC"), std::string::npos);
}

}  // namespace
}  // namespace lain::core
