// characterize.hpp — per-scheme crossbar characterization.
//
// Produces every quantity Table 1 reports, from the circuit structure
// alone (netlist Vt maps + floorplan RC + device model):
//
//   * worst-path High->Low and Low->High (or precharge) delay,
//   * active leakage at the spec's static probability (solver states
//     weighted over data polarities),
//   * idle leakage (no grants, not gated) and standby leakage (sleep
//     asserted, circuit parked),
//   * dynamic power at full utilization, plus control overhead,
//   * sleep entry/exit energy and the Minimum Idle Time (breakeven),
//   * total power at the spec frequency.
//
// Savings/penalty percentages vs SC are assembled by core/table1.

#pragma once

#include <vector>

#include "circuit/leakage.hpp"
#include "xbar/builder.hpp"
#include "xbar/floorplan.hpp"
#include "xbar/scheme.hpp"
#include "xbar/spec.hpp"

namespace lain::xbar {

struct Characterization {
  Scheme scheme = Scheme::kSC;

  // Delay rows (worst-case path; LH is the precharge time for the
  // precharged schemes).
  double delay_hl_s = 0.0;
  double delay_lh_s = 0.0;

  // Leakage (full crossbar, W).
  double active_leakage_w = 0.0;
  double idle_leakage_w = 0.0;
  double standby_leakage_w = 0.0;

  // Power (full crossbar, W).
  double dynamic_power_w = 0.0;   // data-path switching at full load
  double control_power_w = 0.0;   // grant / segment-enable lines
  double total_power_w = 0.0;     // dynamic + control + active leakage

  // Sleep-mode bookkeeping.
  double sleep_entry_energy_j = 0.0;
  double wakeup_energy_j = 0.0;
  int min_idle_cycles = 0;

  double critical_delay_s() const {
    return delay_hl_s > delay_lh_s ? delay_hl_s : delay_lh_s;
  }
  double sleep_penalty_j() const {
    return sleep_entry_energy_j + wakeup_energy_j;
  }
  // Leakage energy recovered per standby cycle (J).
  double standby_saving_per_cycle_j(double freq_hz) const {
    return (idle_leakage_w - standby_leakage_w) / freq_hz;
  }
};

// Characterizes `scheme` at the given design point.
Characterization characterize(const CrossbarSpec& spec, Scheme scheme);

// One logic state characterize() solves for leakage.  `input_cell`
// names its netlist: build_input_cell(spec, scheme) when set,
// build_output_slice(spec, scheme) otherwise.
struct LeakageState {
  bool input_cell = false;
  circuit::NodeVoltages voltages;
};

// Every leakage state characterize(spec, scheme) solves.  The slice's
// standby state is the last slice state.
std::vector<LeakageState> leakage_states(const CrossbarSpec& spec,
                                         Scheme scheme);

// Fractional saving of `value` relative to `base` (1 - value/base).
double relative_saving(double base, double value);

// Delay penalty of `c` vs baseline `base`: increase of the critical
// delay, floored at zero (the paper reports "No" for improvements).
double delay_penalty(const Characterization& base, const Characterization& c);

}  // namespace lain::xbar
