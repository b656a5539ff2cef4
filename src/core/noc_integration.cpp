#include "core/noc_integration.hpp"

#include <stdexcept>

namespace lain::core {

RouterPowerHook::RouterPowerHook(const NocPowerConfig& cfg,
                                 const xbar::Characterization& chars)
    : power_(cfg, chars) {}

// With gating off the sleep controller never gates, so the crossbar
// can always traverse.
bool RouterPowerHook::xbar_ready() { return power_.xbar_ready(); }

void RouterPowerHook::on_cycle(const noc::RouterEvents& ev) {
  power::RouterCycleEvents pe;
  pe.buffer_writes = ev.flits_received;
  pe.buffer_reads = ev.flits_sent;
  pe.xbar_traversals = ev.flits_sent;
  pe.arbitrations = ev.arbitrations;
  pe.link_flits = ev.link_flits;
  power_.tick(pe);
}

void RouterPowerHook::on_idle_cycles(std::int64_t n) {
  // One batched call per account instead of n empty ticks: the
  // accounts add the per-cycle constants an empty tick adds, once per
  // cycle and in order, so the energy columns of an event-stepped run
  // stay bit-identical (see RouterPower::idle_cycles).
  power_.idle_cycles(n);
}

PoweredNoc::PoweredNoc(noc::Network& net, const NocPowerConfig& cfg,
                       const xbar::Characterization& chars)
    : cfg_(cfg), chars_(chars) {
  if (cfg.xbar_spec.ports != noc::kNumPorts) {
    throw std::invalid_argument(
        "crossbar spec must have 5 ports to match the mesh router");
  }
  const int n = net.num_nodes();
  hooks_.reserve(static_cast<size_t>(n));
  for (noc::NodeId i = 0; i < n; ++i) {
    hooks_.emplace_back(cfg, chars_);
    net.router(i).set_power_hook(&hooks_.back());
  }
}

double PoweredNoc::total_energy_j() const {
  double e = 0.0;
  for (const auto& h : hooks_) e += h.power().total_energy_j();
  return e;
}

double PoweredNoc::crossbar_energy_j() const {
  double e = 0.0;
  for (const auto& h : hooks_) e += h.power().crossbar().total_energy_j();
  return e;
}

double PoweredNoc::buffer_energy_j() const {
  double e = 0.0;
  for (const auto& h : hooks_) e += h.power().buffer_energy_j();
  return e;
}

double PoweredNoc::arbiter_energy_j() const {
  double e = 0.0;
  for (const auto& h : hooks_) e += h.power().arbiter_energy_j();
  return e;
}

double PoweredNoc::link_energy_j() const {
  double e = 0.0;
  for (const auto& h : hooks_) e += h.power().link_energy_j();
  return e;
}

double PoweredNoc::average_power_w() const {
  double p = 0.0;
  for (const auto& h : hooks_) p += h.power().average_power_w();
  return p;
}

double PoweredNoc::crossbar_average_power_w() const {
  double p = 0.0;
  for (const auto& h : hooks_) p += h.power().crossbar().average_power_w();
  return p;
}

double PoweredNoc::realized_standby_saving_j() const {
  double s = 0.0;
  for (const auto& h : hooks_) {
    s += h.power().crossbar().controller().realized_saving_j();
  }
  return s;
}

std::int64_t PoweredNoc::standby_cycles() const {
  std::int64_t c = 0;
  for (const auto& h : hooks_) {
    c += h.power().crossbar().controller().standby_cycles();
  }
  return c;
}

std::int64_t PoweredNoc::total_cycles() const {
  std::int64_t c = 0;
  for (const auto& h : hooks_) c += h.power().crossbar().controller().cycles();
  return c;
}

}  // namespace lain::core
