// sleep_policy_explorer — how should the idle-detect threshold be set?
// The paper's Minimum Idle Time is the breakeven point; this example
// sweeps the timeout threshold around it on a real traffic trace and
// shows the realized energy saving, demonstrating that the breakeven
// threshold is (close to) the sweet spot and that aggressive gating
// can thrash.

#include <cstdio>
#include <vector>

#include "core/leakage_aware.hpp"
#include "noc/sim.hpp"
#include "power/sleep_controller.hpp"

using namespace lain;

// Records the crossbar demand of the router it is set on, one entry
// per router cycle.  A noc::PowerHook sees its router's events at the
// end of every cycle — the seam the power accounts use — and this one
// never stalls traversal.
class DemandTrace final : public noc::PowerHook {
 public:
  bool xbar_ready() override { return true; }
  void on_cycle(const noc::RouterEvents& ev) override {
    demand.push_back(ev.demand);
  }
  std::vector<bool> demand;
};

int main() {
  core::LainContext ctx;
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  const xbar::Scheme scheme = xbar::Scheme::kDFC;
  const xbar::Characterization& c = ctx.characterization(spec, scheme);

  std::printf("Sleep-policy exploration for %s (min idle = %d cycles)\n\n",
              scheme_name(scheme).data(), c.min_idle_cycles);

  // Record one router's crossbar demand trace from a real simulation.
  noc::SimConfig cfg =
      core::default_mesh_config(0.12, noc::TrafficPattern::kUniform);
  noc::Simulation sim(cfg);
  constexpr noc::NodeId kCenter = 12;
  DemandTrace trace;
  sim.network().router(kCenter).set_power_hook(&trace);
  sim.run();
  const std::vector<bool>& demand = trace.demand;
  std::printf("trace: %zu cycles from the center router, %.1f%% busy\n\n",
              demand.size(),
              100.0 * sim.network().router(kCenter).activity().utilization());

  power::GatedBlockCosts costs{c.idle_leakage_w, c.standby_leakage_w,
                               c.sleep_entry_energy_j, c.wakeup_energy_j,
                               spec.freq_hz};
  std::printf("%-10s %14s %12s %12s\n", "threshold", "saved (nJ)",
              "standby %", "transitions");
  for (int threshold : {1, 2, 3, 4, 6, 8, 12, 20}) {
    power::SleepPolicy policy;
    policy.idle_threshold_cycles = threshold;
    power::SleepController ctl(policy, costs);
    for (bool d : demand) ctl.tick(d);
    std::printf("%-10d %14.3f %12.1f %12ld%s\n", threshold,
                ctl.realized_saving_j() * 1e9,
                100.0 * static_cast<double>(ctl.standby_cycles()) /
                    static_cast<double>(ctl.cycles()),
                static_cast<long>(ctl.transitions()),
                threshold == c.min_idle_cycles ? "   <- breakeven" : "");
  }
  std::printf("\nThresholds below the breakeven gate too eagerly (more "
              "transitions, each paying the\nsleep penalty); far above it "
              "they leave idle leakage on the table.\n");
  return 0;
}
