#include "power/sleep_controller.hpp"

#include "power/repeated_add.hpp"

#include <algorithm>
#include <cmath>

namespace lain::power {

int GatedBlockCosts::min_idle_cycles() const {
  const double saving_per_cycle = (idle_power_w - standby_power_w) / freq_hz;
  if (saving_per_cycle <= 0.0) return 999;
  const double penalty = entry_energy_j + exit_energy_j;
  return std::max(1, static_cast<int>(std::ceil(penalty / saving_per_cycle)));
}

SleepController::SleepController(const SleepPolicy& policy,
                                 const GatedBlockCosts& costs)
    : policy_(policy),
      costs_(costs),
      cycle_s_(1.0 / costs.freq_hz),
      idle_leak_j_(costs.idle_power_w * cycle_s_),
      standby_leak_j_(costs.standby_power_w * cycle_s_) {
  if (policy.idle_threshold_cycles < 1) {
    throw std::invalid_argument("idle threshold must be >= 1");
  }
  if (policy.wakeup_latency_cycles < 0) {
    throw std::invalid_argument("wakeup latency must be >= 0");
  }
  if (costs.freq_hz <= 0.0) {
    throw std::invalid_argument("frequency must be positive");
  }
}

ActivityState SleepController::tick(bool demand) {
  ++cycles_;
  // A never-gated block leaks idle power whenever it is not in use;
  // while in use its power is billed by the dynamic model, so the
  // reference tracks idle leakage only.
  if (!demand) ungated_reference_j_ += idle_leak_j_;

  if (gated_) {
    ++standby_cycles_;
    leakage_energy_j_ += standby_leak_j_;
    if (demand) {
      if (wake_stall_ == 0) wake_stall_ = policy_.wakeup_latency_cycles;
      --wake_stall_;
      if (wake_stall_ <= 0) {
        gated_ = false;
        wake_stall_ = 0;
        idle_run_ = 0;
        transition_energy_j_ += costs_.exit_energy_j;
        ++transitions_;
      }
    }
    return ActivityState::kStandby;
  }

  if (demand) {
    idle_run_ = 0;
    return ActivityState::kActive;
  }

  ++idle_run_;
  leakage_energy_j_ += idle_leak_j_;
  if (policy_.enabled && idle_run_ >= policy_.idle_threshold_cycles) {
    gated_ = true;
    idle_run_ = 0;
    transition_energy_j_ += costs_.entry_energy_j;
    ++transitions_;
  }
  return ActivityState::kIdle;
}

void SleepController::idle_cycles(std::int64_t n) {
  if (n <= 0) return;
  cycles_ += n;
  // Cycles spent ungated: until the run reaches the threshold (the
  // gating cycle itself is still an idle one), or all n with the
  // policy off.  A gated block stays gated, and a wake in progress
  // holds its stall count: only demand advances it.
  std::int64_t idle = 0;
  if (!gated_) {
    idle = n;
    if (policy_.enabled) {
      idle = std::min(n, policy_.idle_threshold_cycles - idle_run_);
    }
    idle_run_ += idle;
    if (policy_.enabled && idle_run_ >= policy_.idle_threshold_cycles) {
      gated_ = true;
      idle_run_ = 0;
      transition_energy_j_ += costs_.entry_energy_j;
      ++transitions_;
    }
  }
  standby_cycles_ += n - idle;
  ungated_reference_j_ = repeated_add(ungated_reference_j_, idle_leak_j_, n);
  leakage_energy_j_ = repeated_add(
      repeated_add(leakage_energy_j_, idle_leak_j_, idle), standby_leak_j_,
      n - idle);
}

SleepPolicy breakeven_policy(const GatedBlockCosts& costs,
                             int wakeup_latency_cycles) {
  SleepPolicy p;
  p.idle_threshold_cycles = std::max(1, costs.min_idle_cycles());
  // A block whose gating never pays off keeps the policy disabled.
  if (costs.min_idle_cycles() >= 999) p.enabled = false;
  p.wakeup_latency_cycles = wakeup_latency_cycles;
  return p;
}

}  // namespace lain::power
