// crossbar_sw.hpp — functional crossbar activity tracking.
//
// The router's switch-traversal stage *is* the crossbar the paper
// optimizes; this tap records its per-cycle activity so the power
// integration (core/noc_integration) and the idle-time experiments
// (bench/noc_idle_histogram) can consume it: traversal counts, busy /
// idle cycles, and the distribution of idle-run lengths — the quantity
// the Minimum Idle Time row of Table 1 gates on.

#pragma once

#include "noc/stats.hpp"

namespace lain::noc {

class CrossbarActivity {
 public:
  // Records one cycle with `active_outputs` ports traversing flits.
  void record(int active_outputs) {
    ++cycles_;
    if (active_outputs > 0) {
      busy_cycles_++;
      traversals_ += active_outputs;
      if (idle_run_ > 0) {
        idle_runs_.add(idle_run_);
        idle_run_ = 0;
      }
    } else {
      ++idle_run_;
      ++idle_cycles_;
    }
  }

  // Records n consecutive idle cycles at once (cycle skipping);
  // exactly equivalent to n record(0) calls.
  void record_idle(std::int64_t n);

  std::int64_t cycles() const { return cycles_; }
  std::int64_t busy_cycles() const { return busy_cycles_; }
  std::int64_t traversals() const { return traversals_; }
  double utilization() const {
    return cycles_ ? static_cast<double>(busy_cycles_) / cycles_ : 0.0;
  }
  // Distribution of idle-run lengths (completed runs only).
  const Histogram& idle_runs() const { return idle_runs_; }
  // Fraction of idle cycles inside runs of length >= n (how much idle
  // time a gating policy with threshold n could convert to standby).
  double gateable_idle_fraction(int min_idle_cycles) const;

 private:
  std::int64_t cycles_ = 0;
  std::int64_t busy_cycles_ = 0;
  std::int64_t traversals_ = 0;
  std::int64_t idle_run_ = 0;
  std::int64_t idle_cycles_ = 0;
  Histogram idle_runs_;
};

}  // namespace lain::noc
