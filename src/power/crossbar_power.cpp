#include "power/crossbar_power.hpp"

#include <stdexcept>

namespace lain::power {
namespace {

GatedBlockCosts costs_from(const xbar::CrossbarSpec& spec,
                           const xbar::Characterization& c) {
  GatedBlockCosts g;
  g.idle_power_w = c.idle_leakage_w;
  g.standby_power_w = c.standby_leakage_w;
  g.entry_energy_j = c.sleep_entry_energy_j;
  g.exit_energy_j = c.wakeup_energy_j;
  g.freq_hz = spec.freq_hz;
  return g;
}

}  // namespace

namespace {
SleepPolicy make_policy(const xbar::CrossbarSpec& spec,
                               const xbar::Characterization& chars,
                               bool enable_gating) {
  SleepPolicy p = breakeven_policy(costs_from(spec, chars));
  if (!enable_gating) p.enabled = false;
  return p;
}
}  // namespace

CrossbarPower::CrossbarPower(const xbar::CrossbarSpec& spec,
                             const xbar::Characterization& chars,
                             bool enable_gating)
    : spec_(spec),
      chars_(chars),
      controller_(make_policy(spec, chars, enable_gating),
                  costs_from(spec, chars)) {
  spec.validate();
  // Dynamic energy per port-traversal: the characterization's dynamic
  // power assumes all ports busy every cycle.
  energy_per_port_traversal_j_ =
      (chars.dynamic_power_w + chars.control_power_w) /
      (spec.freq_hz * spec.ports);
  active_leak_per_cycle_j_ = chars.active_leakage_w / spec.freq_hz;
}

ActivityState CrossbarPower::tick(int active_outputs) {
  if (active_outputs < 0 || active_outputs > spec_.ports) {
    throw std::out_of_range("active_outputs out of range");
  }
  ++cycles_;
  const ActivityState st = controller_.tick(active_outputs > 0);
  if (st == ActivityState::kActive) {
    traversals_ += active_outputs;
    dynamic_energy_j_ += energy_per_port_traversal_j_ * active_outputs;
    // Active leakage for the cycle, prorated by port utilization
    // between the idle floor and the all-ports-busy figure.
    const double util = static_cast<double>(active_outputs) / spec_.ports;
    active_leak_energy_j_ +=
        util * active_leak_per_cycle_j_ +
        (1.0 - util) * (chars_.idle_leakage_w / spec_.freq_hz);
  }
  return st;
}

void CrossbarPower::idle_cycles(std::int64_t n) {
  if (n <= 0) return;
  // tick(0) never reports kActive, so only the controller accounts.
  cycles_ += n;
  controller_.idle_cycles(n);
}

double CrossbarPower::average_power_w() const {
  if (cycles_ == 0) return 0.0;
  return total_energy_j() * spec_.freq_hz / static_cast<double>(cycles_);
}

}  // namespace lain::power
