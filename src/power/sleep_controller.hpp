// sleep_controller.hpp — idle detection and standby gating policy.
//
// Implements the paper's Minimum Idle Time policy: gating pays off
// only if the circuit stays idle for at least
//
//   N_min = ceil( (E_entry + E_exit) / ((P_idle - P_standby) / f) )
//
// cycles.  Because the controller cannot see the future, it uses the
// classic timeout policy: after `idle_threshold` consecutive idle
// cycles it asserts sleep.  The timeout is 2-competitive; setting it
// to N_min bounds the worst-case loss to one breakeven's worth of
// energy.  The controller also integrates the energy actually spent /
// saved so NoC experiments can report realized (not just potential)
// standby savings.

#pragma once

#include <cstdint>
#include <stdexcept>

#include "power/state.hpp"

namespace lain::power {

struct SleepPolicy {
  int idle_threshold_cycles = 3;  // assert sleep after this many idle cycles
  int wakeup_latency_cycles = 1;  // cycles to leave standby on demand
  bool enabled = true;
};

struct GatedBlockCosts {
  double idle_power_w = 0.0;     // leakage when idle, not gated
  double standby_power_w = 0.0;  // leakage when gated
  double entry_energy_j = 0.0;   // sleep-in penalty
  double exit_energy_j = 0.0;    // wake-up penalty
  double freq_hz = 1.0;

  // The paper's Minimum Idle Time (Table 1 row 5).
  int min_idle_cycles() const;
};

class SleepController {
 public:
  SleepController(const SleepPolicy& policy, const GatedBlockCosts& costs);

  // Advances one cycle.  `demand` = the block is needed this cycle.
  // Returns the state the block occupied during this cycle.  When the
  // block is in standby and demand arrives, wake-up latency is paid
  // (the caller observes kStandby for those cycles and must stall).
  ActivityState tick(bool demand);

  // Advances n cycles without demand, leaving every field exactly as
  // n tick(false) calls would.  The state machine moves in closed
  // form: idle cycles until the run reaches the threshold, the gating
  // transition, then standby.  Each energy accumulator adds the same
  // per-cycle constant tick() adds, n times in sequence
  // (repeated_add), so the sums are bit-identical (n * constant would
  // round differently).
  void idle_cycles(std::int64_t n);

  bool is_gated() const { return gated_; }
  // Remaining wake-up stall cycles (0 when ready).
  int wake_stall() const { return wake_stall_; }

  // Energy accounting over the simulated history.
  double leakage_energy_j() const { return leakage_energy_j_; }
  double transition_energy_j() const { return transition_energy_j_; }
  double total_energy_j() const {
    return leakage_energy_j_ + transition_energy_j_;
  }
  // Energy a never-gated block would have leaked over the same history.
  double ungated_reference_j() const { return ungated_reference_j_; }
  // Realized saving (can be negative if the policy thrashes).
  double realized_saving_j() const {
    return ungated_reference_j() - total_energy_j();
  }

  std::int64_t cycles() const { return cycles_; }
  std::int64_t standby_cycles() const { return standby_cycles_; }
  std::int64_t transitions() const { return transitions_; }

 private:
  SleepPolicy policy_;
  GatedBlockCosts costs_;
  // Per-cycle constants, computed once; tick() and idle_cycles() both
  // read them, so the two paths add the same bits.
  double cycle_s_;
  double idle_leak_j_;     // idle_power_w * cycle_s_
  double standby_leak_j_;  // standby_power_w * cycle_s_
  bool gated_ = false;
  // 64-bit: with the policy off an idle run never resets.
  std::int64_t idle_run_ = 0;
  int wake_stall_ = 0;
  std::int64_t cycles_ = 0;
  std::int64_t standby_cycles_ = 0;
  std::int64_t transitions_ = 0;
  double leakage_energy_j_ = 0.0;
  double transition_energy_j_ = 0.0;
  double ungated_reference_j_ = 0.0;
};

// Returns a policy tuned to the block: threshold = max(min_idle, 1).
SleepPolicy breakeven_policy(const GatedBlockCosts& costs,
                             int wakeup_latency_cycles = 1);

}  // namespace lain::power
