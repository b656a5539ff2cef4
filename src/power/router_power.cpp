#include "power/router_power.hpp"

#include "power/repeated_add.hpp"

namespace lain::power {

RouterPower::RouterPower(const RouterPowerConfig& cfg,
                         const xbar::Characterization& xbar_chars)
    : cfg_(cfg),
      xbar_(cfg.xbar_spec, xbar_chars, cfg.enable_gating),
      buffer_model_(characterize_buffer(cfg.xbar_spec, cfg.buffer)),
      arbiter_model_(characterize_arbiter(cfg.xbar_spec, cfg.xbar_spec.ports)),
      link_model_(characterize_link(cfg.xbar_spec, cfg.link)),
      cycle_s_(1.0 / cfg.xbar_spec.freq_hz),
      buffer_leak_j_(cfg.xbar_spec.ports * buffer_model_.leakage_w * cycle_s_),
      arbiter_leak_j_(arbiter_model_.leakage_w * cycle_s_),
      link_leak_j_(cfg.xbar_spec.ports * link_model_.leakage_w * cycle_s_) {}

ActivityState RouterPower::tick(const RouterCycleEvents& ev) {
  ++cycles_;
  buffer_energy_j_ += ev.buffer_writes * buffer_model_.write_energy_j +
                      ev.buffer_reads * buffer_model_.read_energy_j +
                      buffer_leak_j_;
  arbiter_energy_j_ +=
      ev.arbitrations * arbiter_model_.energy_per_arbitration_j +
      arbiter_leak_j_;
  link_energy_j_ +=
      ev.link_flits * link_model_.energy_per_flit_j + link_leak_j_;
  return xbar_.tick(ev.xbar_traversals);
}

void RouterPower::idle_cycles(std::int64_t n) {
  if (n <= 0) return;
  cycles_ += n;
  buffer_energy_j_ = repeated_add(buffer_energy_j_, buffer_leak_j_, n);
  arbiter_energy_j_ = repeated_add(arbiter_energy_j_, arbiter_leak_j_, n);
  link_energy_j_ = repeated_add(link_energy_j_, link_leak_j_, n);
  xbar_.idle_cycles(n);
}

double RouterPower::total_energy_j() const {
  return buffer_energy_j_ + arbiter_energy_j_ + link_energy_j_ +
         xbar_.total_energy_j();
}

double RouterPower::average_power_w() const {
  if (cycles_ == 0) return 0.0;
  return total_energy_j() * cfg_.xbar_spec.freq_hz /
         static_cast<double>(cycles_);
}

}  // namespace lain::power
