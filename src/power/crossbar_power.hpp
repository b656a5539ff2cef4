// crossbar_power.hpp — per-cycle energy integrator for one crossbar.
//
// Binds a scheme characterization (xbar/characterize) to a cycle-level
// activity trace: the NoC simulator reports, per cycle, how many
// output ports switched a flit; the integrator books dynamic energy
// for the traversals, leakage according to the sleep controller's
// state, and the sleep transition penalties.

#pragma once

#include <cstdint>

#include "power/sleep_controller.hpp"
#include "xbar/characterize.hpp"

namespace lain::power {

class CrossbarPower {
 public:
  // `chars` is copied; `freq_hz` and port/bit counts come from `spec`.
  // With `enable_gating` false the sleep controller never enters
  // standby (the never-gated reference configuration).
  CrossbarPower(const xbar::CrossbarSpec& spec,
                const xbar::Characterization& chars,
                bool enable_gating = true);

  // Advance one cycle with `active_outputs` ports traversing flits.
  // Returns the state occupied this cycle.  While the controller
  // reports kStandby with pending demand, the caller must stall the
  // traversal (wakeup latency).
  ActivityState tick(int active_outputs);

  // Advances n cycles with no traversal, leaving every field exactly
  // as n tick(0) calls would (see SleepController::idle_cycles).
  void idle_cycles(std::int64_t n);

  bool can_traverse() const {
    return !controller_.is_gated() || controller_.wake_stall() == 0;
  }

  const SleepController& controller() const { return controller_; }
  const xbar::Characterization& characterization() const { return chars_; }

  double dynamic_energy_j() const { return dynamic_energy_j_; }
  double leakage_energy_j() const {
    return controller_.total_energy_j() + active_leak_energy_j_;
  }
  double total_energy_j() const {
    return dynamic_energy_j() + leakage_energy_j();
  }
  std::int64_t traversals() const { return traversals_; }
  std::int64_t cycles() const { return cycles_; }

  // Average power over the integrated history (W).
  double average_power_w() const;

 private:
  xbar::CrossbarSpec spec_;
  xbar::Characterization chars_;
  SleepController controller_;
  double energy_per_port_traversal_j_ = 0.0;
  double active_leak_per_cycle_j_ = 0.0;
  double dynamic_energy_j_ = 0.0;
  double active_leak_energy_j_ = 0.0;
  std::int64_t traversals_ = 0;
  std::int64_t cycles_ = 0;
};

}  // namespace lain::power
