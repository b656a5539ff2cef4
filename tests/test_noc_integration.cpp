#include "core/noc_integration.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "xbar/characterize.hpp"

namespace lain::core {
namespace {

// One powered run of the canonical 5x5 mesh (E8) at uniform traffic.
NocRunResult run_mesh(LainContext& ctx, xbar::Scheme scheme, double rate,
                      bool gating = true) {
  NocRunSpec spec;
  spec.scheme = scheme;
  spec.sim = default_mesh_config(rate, noc::TrafficPattern::kUniform);
  spec.enable_gating = gating;
  return ctx.run_noc(spec);
}

TEST(NocIntegration, PoweredRunProducesEnergy) {
  LainContext ctx;
  const NocRunResult r = run_mesh(ctx, xbar::Scheme::kSC, 0.1);
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.network_power_w, 0.0);
  EXPECT_GT(r.crossbar_power_w, 0.0);
  EXPECT_LT(r.crossbar_power_w, r.network_power_w);
  EXPECT_GT(r.avg_packet_latency_cycles, 4.0);
}

TEST(NocIntegration, StandbyFractionFallsWithLoad) {
  LainContext ctx;
  const NocRunResult lo = run_mesh(ctx, xbar::Scheme::kDPC, 0.03);
  const NocRunResult hi = run_mesh(ctx, xbar::Scheme::kDPC, 0.35);
  EXPECT_GT(lo.standby_fraction, hi.standby_fraction);
  EXPECT_GT(lo.standby_fraction, 0.2);
}

TEST(NocIntegration, PrechargedCrossbarsSaveAtLowLoad) {
  LainContext ctx;
  const NocRunResult sc = run_mesh(ctx, xbar::Scheme::kSC, 0.05);
  const NocRunResult dpc = run_mesh(ctx, xbar::Scheme::kDPC, 0.05);
  // DPC's deep standby savings dominate at low utilization.
  EXPECT_LT(dpc.crossbar_power_w, 0.6 * sc.crossbar_power_w);
}

TEST(NocIntegration, GatingReducesCrossbarEnergy) {
  LainContext ctx;
  const NocRunResult gated = run_mesh(ctx, xbar::Scheme::kDPC, 0.05, true);
  const NocRunResult ungated = run_mesh(ctx, xbar::Scheme::kDPC, 0.05, false);
  EXPECT_LT(gated.crossbar_power_w, ungated.crossbar_power_w);
  EXPECT_GT(gated.realized_saving_w, 0.0);
  EXPECT_DOUBLE_EQ(ungated.standby_fraction, 0.0);
}

TEST(NocIntegration, LatencyUnaffectedAtNoGating) {
  // Gating stalls cost at most a wake-up cycle; latency stays close.
  LainContext ctx;
  const NocRunResult gated = run_mesh(ctx, xbar::Scheme::kSDPC, 0.1, true);
  const NocRunResult ungated = run_mesh(ctx, xbar::Scheme::kSDPC, 0.1, false);
  EXPECT_NEAR(gated.avg_packet_latency_cycles,
              ungated.avg_packet_latency_cycles,
              0.3 * ungated.avg_packet_latency_cycles + 2.0);
}

TEST(NocIntegration, PortMismatchThrows) {
  noc::Simulation sim(default_mesh_config(0.1,
                                          noc::TrafficPattern::kUniform));
  NocPowerConfig cfg = default_noc_power(xbar::Scheme::kSC);
  cfg.xbar_spec.ports = 7;
  const xbar::Characterization chars =
      xbar::characterize(cfg.xbar_spec, cfg.scheme);
  EXPECT_THROW(PoweredNoc(sim.network(), cfg, chars), std::invalid_argument);
}

TEST(NocIntegration, IdleHistogramHasLongRunsAtLowLoad) {
  LainContext ctx;
  const noc::Histogram h = ctx.idle_histogram(
      default_mesh_config(0.05, noc::TrafficPattern::kUniform));
  EXPECT_GT(h.count(), 0);
  // At 5 % load, idle runs longer than the worst Minimum Idle Time (3)
  // must dominate — this is why gating pays off in the NoC context.
  EXPECT_GT(h.fraction_at_least(3), 0.3);
}

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expect_same_power(const power::RouterPower& a,
                       const power::RouterPower& b) {
  EXPECT_EQ(bits(a.buffer_energy_j()), bits(b.buffer_energy_j()));
  EXPECT_EQ(bits(a.arbiter_energy_j()), bits(b.arbiter_energy_j()));
  EXPECT_EQ(bits(a.link_energy_j()), bits(b.link_energy_j()));
  EXPECT_EQ(bits(a.total_energy_j()), bits(b.total_energy_j()));
  EXPECT_EQ(bits(a.average_power_w()), bits(b.average_power_w()));
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.xbar_ready(), b.xbar_ready());
  const power::CrossbarPower& xa = a.crossbar();
  const power::CrossbarPower& xb = b.crossbar();
  EXPECT_EQ(bits(xa.dynamic_energy_j()), bits(xb.dynamic_energy_j()));
  EXPECT_EQ(bits(xa.leakage_energy_j()), bits(xb.leakage_energy_j()));
  EXPECT_EQ(bits(xa.total_energy_j()), bits(xb.total_energy_j()));
  EXPECT_EQ(bits(xa.average_power_w()), bits(xb.average_power_w()));
  EXPECT_EQ(xa.traversals(), xb.traversals());
  EXPECT_EQ(xa.cycles(), xb.cycles());
  EXPECT_EQ(xa.can_traverse(), xb.can_traverse());
  const power::SleepController& ca = xa.controller();
  const power::SleepController& cb = xb.controller();
  EXPECT_EQ(bits(ca.leakage_energy_j()), bits(cb.leakage_energy_j()));
  EXPECT_EQ(bits(ca.transition_energy_j()), bits(cb.transition_energy_j()));
  EXPECT_EQ(bits(ca.total_energy_j()), bits(cb.total_energy_j()));
  EXPECT_EQ(bits(ca.ungated_reference_j()), bits(cb.ungated_reference_j()));
  EXPECT_EQ(bits(ca.realized_saving_j()), bits(cb.realized_saving_j()));
  EXPECT_EQ(ca.cycles(), cb.cycles());
  EXPECT_EQ(ca.standby_cycles(), cb.standby_cycles());
  EXPECT_EQ(ca.transitions(), cb.transitions());
  EXPECT_EQ(ca.is_gated(), cb.is_gated());
  EXPECT_EQ(ca.wake_stall(), cb.wake_stall());
}

// The event-stepping kernel flushes a router's deferred idle run with
// one on_idle_cycles(n); it must leave the hook exactly as n empty
// on_cycle() calls would.  Each round runs the same busy cycles on
// twin SDPC hooks, then an idle span batched on one and stepped on
// the other.  Spans fall below, at and past the gating threshold, and
// rounds without busy cycles start mid idle run or gated.
TEST(NocIntegration, IdleCyclesEqualEmptyCycles) {
  const NocPowerConfig sdpc = default_noc_power(xbar::Scheme::kSDPC);
  const xbar::Characterization chars =
      xbar::characterize(sdpc.xbar_spec, sdpc.scheme);
  noc::RouterEvents busy;
  busy.flits_received = 2;
  busy.flits_sent = 1;
  busy.link_flits = 1;
  busy.arbitrations = 1;
  busy.demand = true;
  struct Round {
    int busy_cycles;
    std::int64_t idle_span;
  };
  const Round rounds[] = {{3, 1},    {0, 1}, {0, 1000}, {3, 0}, {3, 3},
                          {0, 1},    {1, 7}, {0, 4096}, {3, 2}, {0, 1},
                          {2, 1000}, {0, 5}};
  for (const bool gating : {true, false}) {
    RouterPowerHook batched(default_noc_power(xbar::Scheme::kSDPC, gating),
                            chars);
    RouterPowerHook stepped(default_noc_power(xbar::Scheme::kSDPC, gating),
                            chars);
    int round = 0;
    for (const Round& r : rounds) {
      SCOPED_TRACE(std::string(gating ? "gating" : "no gating") +
                   " round " + std::to_string(round++));
      for (int i = 0; i < r.busy_cycles; ++i) {
        batched.on_cycle(busy);
        stepped.on_cycle(busy);
      }
      batched.on_idle_cycles(r.idle_span);
      for (std::int64_t i = 0; i < r.idle_span; ++i) {
        stepped.on_cycle(noc::RouterEvents{});
      }
      expect_same_power(batched.power(), stepped.power());
    }
    const power::SleepController& ctl =
        batched.power().crossbar().controller();
    EXPECT_EQ(ctl.transitions() > 0, gating);
  }
}

}  // namespace
}  // namespace lain::core
