#include "power/sleep_controller.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace lain::power {
namespace {

GatedBlockCosts costs(double idle_w = 10e-3, double standby_w = 2e-3,
                      double entry_j = 5e-12, double exit_j = 5e-12,
                      double f = 1e9) {
  return GatedBlockCosts{idle_w, standby_w, entry_j, exit_j, f};
}

TEST(GatedBlockCosts, MinIdleBreakeven) {
  // saving/cycle = 8 pJ; penalty = 10 pJ -> ceil(1.25) = 2 cycles.
  EXPECT_EQ(costs().min_idle_cycles(), 2);
  // Huge penalty -> long breakeven.
  EXPECT_EQ(costs(10e-3, 2e-3, 40e-12, 40e-12).min_idle_cycles(), 10);
  // No saving -> gating never pays: sentinel.
  EXPECT_EQ(costs(2e-3, 2e-3).min_idle_cycles(), 999);
  EXPECT_EQ(costs(1e-3, 2e-3).min_idle_cycles(), 999);
}

TEST(SleepController, GatesAfterThreshold) {
  SleepPolicy p;
  p.idle_threshold_cycles = 3;
  SleepController c(p, costs());
  EXPECT_EQ(c.tick(true), ActivityState::kActive);
  EXPECT_EQ(c.tick(false), ActivityState::kIdle);
  EXPECT_EQ(c.tick(false), ActivityState::kIdle);
  EXPECT_FALSE(c.is_gated());
  EXPECT_EQ(c.tick(false), ActivityState::kIdle);  // threshold reached
  EXPECT_TRUE(c.is_gated());
  EXPECT_EQ(c.tick(false), ActivityState::kStandby);
  EXPECT_EQ(c.transitions(), 1);
}

TEST(SleepController, WakeupLatencyStalls) {
  SleepPolicy p;
  p.idle_threshold_cycles = 1;
  p.wakeup_latency_cycles = 2;
  SleepController c(p, costs());
  c.tick(false);  // gates immediately
  ASSERT_TRUE(c.is_gated());
  // Demand arrives: two standby cycles are observed before wake.
  EXPECT_EQ(c.tick(true), ActivityState::kStandby);
  EXPECT_TRUE(c.is_gated());
  EXPECT_EQ(c.tick(true), ActivityState::kStandby);
  EXPECT_FALSE(c.is_gated());
  EXPECT_EQ(c.tick(true), ActivityState::kActive);
}

TEST(SleepController, LongIdleSavesEnergy) {
  SleepPolicy p = breakeven_policy(costs());
  SleepController c(p, costs());
  c.tick(true);
  for (int i = 0; i < 1000; ++i) c.tick(false);
  c.tick(true);
  c.tick(true);
  EXPECT_GT(c.realized_saving_j(), 0.0);
  EXPECT_GT(c.standby_cycles(), 900);
}

TEST(SleepController, ThrashingLosesEnergy) {
  // Idle runs exactly at threshold followed by immediate demand: every
  // gating transition pays the penalty and recovers almost nothing.
  SleepPolicy p;
  p.idle_threshold_cycles = 1;
  p.wakeup_latency_cycles = 0;
  SleepController c(p, costs(10e-3, 9.9e-3, 50e-12, 50e-12));
  for (int i = 0; i < 200; ++i) {
    c.tick(false);  // gate (pays entry)
    c.tick(true);   // immediate wake (pays exit)
  }
  EXPECT_LT(c.realized_saving_j(), 0.0);
}

TEST(SleepController, DisabledPolicyNeverGates) {
  SleepPolicy p = breakeven_policy(costs(2e-3, 2e-3));  // never pays off
  EXPECT_FALSE(p.enabled);
  SleepController c(p, costs(2e-3, 2e-3));
  for (int i = 0; i < 100; ++i) c.tick(false);
  EXPECT_FALSE(c.is_gated());
  EXPECT_EQ(c.standby_cycles(), 0);
}

TEST(SleepController, BreakevenPolicyUsesMinIdle) {
  const SleepPolicy p = breakeven_policy(costs());
  EXPECT_EQ(p.idle_threshold_cycles, 2);
  EXPECT_TRUE(p.enabled);
}

TEST(SleepController, BadConfigThrows) {
  SleepPolicy p;
  p.idle_threshold_cycles = 0;
  EXPECT_THROW(SleepController(p, costs()), std::invalid_argument);
  p.idle_threshold_cycles = 1;
  p.wakeup_latency_cycles = -1;
  EXPECT_THROW(SleepController(p, costs()), std::invalid_argument);
  p.wakeup_latency_cycles = 1;
  GatedBlockCosts bad = costs();
  bad.freq_hz = 0.0;
  EXPECT_THROW(SleepController(p, bad), std::invalid_argument);
}

TEST(SleepController, UngatedReferenceTracksIdleOnly) {
  SleepPolicy p;
  p.idle_threshold_cycles = 5;
  SleepController c(p, costs(10e-3, 2e-3, 0, 0, 1e9));
  c.tick(true);   // active: no reference leakage billed
  c.tick(false);  // idle: 10 pJ
  c.tick(false);
  EXPECT_NEAR(c.ungated_reference_j(), 20e-12, 1e-18);
}

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expect_same_controller(const SleepController& a,
                            const SleepController& b) {
  EXPECT_EQ(bits(a.leakage_energy_j()), bits(b.leakage_energy_j()));
  EXPECT_EQ(bits(a.transition_energy_j()), bits(b.transition_energy_j()));
  EXPECT_EQ(bits(a.ungated_reference_j()), bits(b.ungated_reference_j()));
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.standby_cycles(), b.standby_cycles());
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_EQ(a.is_gated(), b.is_gated());
  EXPECT_EQ(a.wake_stall(), b.wake_stall());
}

// idle_cycles(n) against n tick(false) calls from every start state a
// tick(true)/tick(false) prefix reaches: ungated at each idle run
// below the threshold, gated, and gated with a wake in progress.
// Costs whose per-cycle terms are not exact binary fractions, so a
// batch that multiplied instead of adding would show in the bits.
TEST(SleepController, IdleCyclesEqualPerCycleTicks) {
  const GatedBlockCosts c = costs(10.3e-3, 2.1e-3, 5.3e-12, 7.1e-12, 1.3e9);
  for (const int threshold : {1, 2, 5}) {
    for (const bool enabled : {true, false}) {
      for (const int latency : {1, 2}) {
        SleepPolicy p;
        p.idle_threshold_cycles = threshold;
        p.wakeup_latency_cycles = latency;
        p.enabled = enabled;
        std::vector<std::vector<bool>> prefixes;
        for (int run = 0; run < threshold; ++run) {
          std::vector<bool> ungated{true};
          ungated.insert(ungated.end(), static_cast<size_t>(run), false);
          prefixes.push_back(ungated);
        }
        if (enabled) {
          std::vector<bool> gated{true};
          gated.insert(gated.end(), static_cast<size_t>(threshold), false);
          prefixes.push_back(gated);
          if (latency == 2) {
            gated.push_back(true);  // the wake takes two demand cycles
            prefixes.push_back(gated);
          }
        }
        for (const std::vector<bool>& prefix : prefixes) {
          SleepController start(p, c);
          for (const bool demand : prefix) start.tick(demand);
          if (prefix.size() > static_cast<size_t>(threshold)) {
            ASSERT_TRUE(start.is_gated());
            ASSERT_EQ(start.wake_stall(), prefix.back() ? 1 : 0);
          } else {
            ASSERT_FALSE(start.is_gated());
          }
          for (const std::int64_t n :
               {std::int64_t{0}, std::int64_t{1},
                std::int64_t{threshold - 1}, std::int64_t{threshold},
                std::int64_t{threshold + 1}, std::int64_t{1000}}) {
            SCOPED_TRACE("threshold " + std::to_string(threshold) +
                         (enabled ? " on" : " off") + " latency " +
                         std::to_string(latency) + " prefix " +
                         std::to_string(prefix.size()) + " n " +
                         std::to_string(n));
            SleepController batched = start;
            SleepController stepped = start;
            batched.idle_cycles(n);
            for (std::int64_t i = 0; i < n; ++i) stepped.tick(false);
            expect_same_controller(batched, stepped);
            for (int i = 0; i < latency + 2; ++i) {
              EXPECT_EQ(batched.tick(true), stepped.tick(true));
            }
            expect_same_controller(batched, stepped);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lain::power
