// quickstart — the five-minute tour of the LAIN public API:
//   1. open a session (LainContext: shared characterization cache +
//      process-wide thread budget),
//   2. characterize a leakage-aware crossbar scheme through it,
//   3. regenerate the paper's Table 1,
//   4. run a powered NoC simulation with the scheme plugged in.

#include <cstdio>

#include "core/leakage_aware.hpp"

using namespace lain;

int main() {
  // 1. A session and a design point: 5x5 crossbar, 128-bit flits,
  //    45 nm, 3 GHz.  Every characterization below lands in the
  //    context's cache; repeated asks are free.
  core::LainContext ctx;
  xbar::CrossbarSpec spec = xbar::table1_spec();

  // 2. Characterize the dual-Vt pre-charged crossbar (DPC).
  const xbar::Characterization& dpc =
      ctx.characterization(spec, xbar::Scheme::kDPC);
  std::printf("DPC @ 45nm/3GHz: HL %.2f ps, precharge %.2f ps, active "
              "leakage %.2f mW, standby %.2f mW, min idle %d cycles\n\n",
              to_ps(dpc.delay_hl_s), to_ps(dpc.delay_lh_s),
              to_mW(dpc.active_leakage_w), to_mW(dpc.standby_leakage_w),
              dpc.min_idle_cycles);

  // 3. The whole of Table 1, characterized through the same session
  //    (DPC comes from the cache) and printed in the paper's layout.
  const core::Table1 table = core::measured_table1(ctx, ctx.make_engine());
  std::printf("%s\n", core::table1_report(table).to_text().c_str());

  // 4. System-level: a 5x5 mesh whose router crossbars use SDPC, with
  //    the Minimum-Idle-Time gating policy applied.  The run reuses
  //    the session's cached characterization and draws any simulation
  //    workers from its thread budget.
  core::NocRunSpec run_spec;
  run_spec.scheme = xbar::Scheme::kSDPC;
  run_spec.sim = core::default_mesh_config(/*injection_rate=*/0.1,
                                           noc::TrafficPattern::kUniform);
  const core::NocRunResult run = ctx.run_noc(run_spec);
  std::printf("SDPC mesh @ 10%% load: latency %.1f cycles, crossbar power "
              "%.1f mW total, %.0f%% of cycles in standby\n",
              run.avg_packet_latency_cycles, to_mW(run.crossbar_power_w),
              100.0 * run.standby_fraction);
  return 0;
}
