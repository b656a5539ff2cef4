// router_power.hpp — Orion-style whole-router power aggregation.
//
// Combines the crossbar (the paper's contribution, via CrossbarPower),
// input buffers, allocators and output links into one per-router
// energy account driven by simulator events.

#pragma once

#include <cstdint>
#include <memory>

#include "power/arbiter_power.hpp"
#include "power/buffer_power.hpp"
#include "power/crossbar_power.hpp"
#include "power/link_power.hpp"

namespace lain::power {

struct RouterPowerConfig {
  xbar::CrossbarSpec xbar_spec;
  xbar::Scheme scheme = xbar::Scheme::kSC;
  BufferParams buffer;
  LinkParams link;
  bool enable_gating = true;
};

// Per-router event counters for one cycle.
struct RouterCycleEvents {
  int buffer_writes = 0;     // flits accepted into input buffers
  int buffer_reads = 0;      // flits read for switch traversal
  int xbar_traversals = 0;   // output ports carrying a flit
  int arbitrations = 0;      // switch-allocator arbitrations performed
  int link_flits = 0;        // flits launched on output links
};

class RouterPower {
 public:
  RouterPower(const RouterPowerConfig& cfg,
              const xbar::Characterization& xbar_chars);

  // Integrates one cycle of events; returns the crossbar's activity
  // state (standby gating may stall traversals — see CrossbarPower).
  ActivityState tick(const RouterCycleEvents& ev);

  // Integrates n event-free cycles, leaving every field exactly as n
  // tick(RouterCycleEvents{}) calls would.  An event-free tick adds
  // (0 * E + ...) + L to each account, where L is the leakage term
  // below; for finite event energies E that sum is L bit for bit, so
  // the batch adds L n times in sequence (repeated_add; n * L would
  // round differently), and the crossbar batches its own accounts.
  void idle_cycles(std::int64_t n);

  bool xbar_ready() const { return xbar_.can_traverse(); }

  const CrossbarPower& crossbar() const { return xbar_; }

  double buffer_energy_j() const { return buffer_energy_j_; }
  double arbiter_energy_j() const { return arbiter_energy_j_; }
  double link_energy_j() const { return link_energy_j_; }
  double total_energy_j() const;
  double average_power_w() const;
  std::int64_t cycles() const { return cycles_; }

 private:
  RouterPowerConfig cfg_;
  CrossbarPower xbar_;
  BufferPowerModel buffer_model_;
  ArbiterPowerModel arbiter_model_;
  LinkPowerModel link_model_;
  // Per-cycle leakage terms, computed once; tick() and idle_cycles()
  // both read them, so the two paths add the same bits.
  double cycle_s_;
  double buffer_leak_j_;   // ports * buffer leakage * cycle_s_
  double arbiter_leak_j_;  // arbiter leakage * cycle_s_
  double link_leak_j_;     // ports * link leakage * cycle_s_
  double buffer_energy_j_ = 0.0;
  double arbiter_energy_j_ = 0.0;
  double link_energy_j_ = 0.0;
  std::int64_t cycles_ = 0;
};

}  // namespace lain::power
