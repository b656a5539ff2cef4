#include "core/noc_integration.hpp"

#include <gtest/gtest.h>

#include "core/context.hpp"
#include "core/experiments.hpp"

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
  EXPECT_THROW(PoweredNoc(sim, cfg), std::invalid_argument);
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

}  // namespace
}  // namespace lain::core
