#include "core/table1.hpp"

#include <cstdio>
#include <stdexcept>

#include "tech/units.hpp"

namespace lain::core {
namespace {

using xbar::Scheme;

Table1Row row_from(const xbar::Characterization& base,
                   const xbar::Characterization& c) {
  Table1Row r{};
  r.scheme = c.scheme;
  r.delay_hl_ps = to_ps(c.delay_hl_s);
  r.delay_lh_ps = to_ps(c.delay_lh_s);
  r.active_saving =
      (c.scheme == Scheme::kSC)
          ? 0.0
          : xbar::relative_saving(base.active_leakage_w, c.active_leakage_w);
  r.standby_saving =
      (c.scheme == Scheme::kSC)
          ? 0.0
          : xbar::relative_saving(base.standby_leakage_w,
                                  c.standby_leakage_w);
  r.min_idle_cycles = c.min_idle_cycles;
  r.total_power_mw = to_mW(c.total_power_w);
  r.delay_penalty = xbar::delay_penalty(base, c);
  return r;
}

}  // namespace

Table1 make_table1(const std::vector<xbar::Characterization>& chars) {
  const auto schemes = xbar::all_schemes();
  bool in_order = chars.size() == schemes.size();
  for (std::size_t i = 0; in_order && i < chars.size(); ++i) {
    in_order = chars[i].scheme == schemes[i];
  }
  if (!in_order) {
    throw std::invalid_argument(
        "Table 1 takes the five schemes in order, SC first");
  }
  Table1 t;
  for (std::size_t i = 0; i < chars.size(); ++i) {
    t.rows[i] = row_from(chars.front(), chars[i]);
  }
  return t;
}

Table1 make_table1(const xbar::CrossbarSpec& spec) {
  std::vector<xbar::Characterization> chars;
  for (Scheme s : xbar::all_schemes()) {
    chars.push_back(xbar::characterize(spec, s));
  }
  return make_table1(chars);
}

const std::array<Table1Row, 5>& paper_table1() {
  // Values transcribed from Table 1 of the paper.
  static const std::array<Table1Row, 5> kPaper = {{
      {Scheme::kSC, 61.40, 54.87, 0.0, 0.0, 3, 182.81, 0.0},
      {Scheme::kDFC, 51.87, 58.17, 0.1013, 0.1236, 2, 154.07, 0.0},
      {Scheme::kDPC, 53.08, 61.25, 0.4370, 0.9368, 1, 180.45, 0.0},
      {Scheme::kSDFC, 62.81, 64.28, 0.4209, 0.4391, 3, 122.18, 0.0469},
      {Scheme::kSDPC, 54.90, 62.80, 0.6357, 0.9596, 1, 168.55, 0.0228},
  }};
  return kPaper;
}

ReportTable table1_report(const Table1& t) {
  ReportTable out;
  out.add_column("Scheme", 38, Align::kLeft);
  for (const Table1Row& r : t.rows) {
    out.add_column(std::string(xbar::scheme_name(r.scheme)), 9);
  }
  // One row per metric: its label, then `cell(row)` for each scheme.
  auto metric = [&](const char* label, const auto& cell) {
    out.begin_row().cell(label);
    for (const Table1Row& r : t.rows) cell(r);
  };
  // Savings and the penalty are relative to SC, so its cells read "-".
  auto vs_sc = [&](const Table1Row& r, double fraction) {
    if (r.scheme == Scheme::kSC) {
      out.cell("-");
    } else {
      out.cell_pct(fraction, 2);
    }
  };
  metric("High to Low delay time (ps)",
         [&](const Table1Row& r) { out.cell(r.delay_hl_ps, 2); });
  metric("Low to High / Precharge delay time (ps)",
         [&](const Table1Row& r) { out.cell(r.delay_lh_ps, 2); });
  metric("Active Leakage Savings",
         [&](const Table1Row& r) { vs_sc(r, r.active_saving); });
  metric("Standby Leakage Savings",
         [&](const Table1Row& r) { vs_sc(r, r.standby_saving); });
  metric("Minimum Idle Time - 3GHz (cycles)",
         [&](const Table1Row& r) { out.cell(r.min_idle_cycles); });
  metric("Total Power - 3GHz (mW)",
         [&](const Table1Row& r) { out.cell(r.total_power_mw, 2); });
  metric("Delay Penalty", [&](const Table1Row& r) {
    if (r.scheme != Scheme::kSC && r.delay_penalty <= 1e-9) {
      out.cell("No");
    } else {
      vs_sc(r, r.delay_penalty);
    }
  });
  return out;
}

std::string format_comparison(const Table1& measured) {
  const auto& paper = paper_table1();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-6s | %-18s | %-18s | %-19s | %-19s | %-11s | %-19s\n",
                "scheme", "HL ps (paper/meas)", "LH ps (paper/meas)",
                "act sav (ppr/meas)", "stby sav (ppr/meas)", "minIdle p/m",
                "total mW (ppr/meas)");
  out += buf;
  for (std::size_t i = 0; i < measured.rows.size(); ++i) {
    const Table1Row& p = paper[i];
    const Table1Row& m = measured.rows[i];
    std::snprintf(
        buf, sizeof(buf),
        "%-6s | %8.2f/%8.2f | %8.2f/%8.2f | %8.2f%%/%8.2f%% | "
        "%8.2f%%/%8.2f%% | %4d/%4d   | %8.2f/%8.2f\n",
        scheme_name(m.scheme).data(), p.delay_hl_ps, m.delay_hl_ps,
        p.delay_lh_ps, m.delay_lh_ps, 100.0 * p.active_saving,
        100.0 * m.active_saving, 100.0 * p.standby_saving,
        100.0 * m.standby_saving, p.min_idle_cycles, m.min_idle_cycles,
        p.total_power_mw, m.total_power_mw);
    out += buf;
  }
  return out;
}

}  // namespace lain::core
