// noc_integration.hpp — attach the leakage-aware crossbars to the
// cycle-accurate simulator.
//
// Every router gets a RouterPower account whose crossbar uses the
// chosen scheme's characterization; the sleep controller applies the
// Minimum Idle Time policy, and a standby crossbar stalls switch
// traversal until it wakes (the simulator therefore *feels* the
// gating: latency and energy are both affected).

#pragma once

#include <vector>

#include "noc/sim.hpp"
#include "power/router_power.hpp"

namespace lain::core {

// Every router's power account is configured alike.  xbar_spec.ports
// must equal noc::kNumPorts; enable_gating = false never enters
// standby.
using NocPowerConfig = power::RouterPowerConfig;

// Per-router hook bridging noc::Router events to power::RouterPower.
class RouterPowerHook final : public noc::PowerHook {
 public:
  RouterPowerHook(const NocPowerConfig& cfg,
                  const xbar::Characterization& chars);
  // Its router holds a pointer to it, so it is never copied; it moves
  // only so PoweredNoc's vector can hold it (reserved before wiring).
  RouterPowerHook(const RouterPowerHook&) = delete;
  RouterPowerHook& operator=(const RouterPowerHook&) = delete;
  RouterPowerHook(RouterPowerHook&&) = default;
  RouterPowerHook& operator=(RouterPowerHook&&) = delete;
  bool xbar_ready() override;
  void on_cycle(const noc::RouterEvents& ev) override;
  // Batched idle accounting for cycle skipping: one
  // RouterPower::idle_cycles(n) call, equal bit for bit to n
  // on_cycle() calls with empty events.
  void on_idle_cycles(std::int64_t n) override;
  const power::RouterPower& power() const { return power_; }

 private:
  power::RouterPower power_;
};

// Fabric-wide power integration: owns one hook per router, all in one
// block in node order.  Works
// with any engine exposing its Network — serial Simulation or the
// sharded parallel kernel.  Hooks are per-router state touched only
// inside that router's tick, so they are shard-safe and the power
// accounts stay deterministic at any shard count.
class PoweredNoc {
 public:
  // `chars` is the characterization of cfg's (spec, scheme), copied;
  // LainContext::characterization() lets repeated runs share one.
  PoweredNoc(noc::Network& net, const NocPowerConfig& cfg,
             const xbar::Characterization& chars);

  const RouterPowerHook& hook(noc::NodeId n) const {
    return hooks_.at(static_cast<size_t>(n));
  }

  // Aggregate energy / power over all routers.
  double total_energy_j() const;
  double crossbar_energy_j() const;
  double buffer_energy_j() const;
  double arbiter_energy_j() const;
  double link_energy_j() const;
  double average_power_w() const;
  double crossbar_average_power_w() const;
  // Fabric-wide realized standby saving vs never gating (J).
  double realized_standby_saving_j() const;
  std::int64_t standby_cycles() const;
  std::int64_t total_cycles() const;

  const NocPowerConfig& config() const { return cfg_; }
  const xbar::Characterization& characterization() const { return chars_; }

 private:
  NocPowerConfig cfg_;
  xbar::Characterization chars_;
  std::vector<RouterPowerHook> hooks_;
};

}  // namespace lain::core
