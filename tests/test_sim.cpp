#include "noc/sim.hpp"

#include <gtest/gtest.h>

namespace lain::noc {
namespace {

SimConfig quick(double rate, TrafficPattern p = TrafficPattern::kUniform) {
  SimConfig cfg;
  cfg.radix_x = 4;
  cfg.radix_y = 4;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.pattern = p;
  cfg.injection_rate = rate;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1500;
  cfg.drain_limit_cycles = 8000;
  cfg.seed = 5;
  return cfg;
}

TEST(Sim, PacketConservation) {
  Simulation sim(quick(0.15));
  const SimStats st = sim.run();
  EXPECT_FALSE(sim.saturated());
  EXPECT_GT(st.packets_injected, 100);
  EXPECT_EQ(st.packets_injected, st.packets_ejected);
  EXPECT_EQ(st.flits_injected, st.flits_ejected);
}

TEST(Sim, ZeroLoadLatencyIsSane) {
  Simulation sim(quick(0.02));
  const SimStats st = sim.run();
  // Zero-load: a few hops of pipeline + serialization; must sit well
  // under 40 cycles on a 4x4 mesh, and above the bare minimum.
  EXPECT_GT(st.packet_latency.mean(), 4.0);
  EXPECT_LT(st.packet_latency.mean(), 40.0);
  // Network latency excludes source queueing: no larger than total.
  EXPECT_LE(st.network_latency.mean(), st.packet_latency.mean());
  // Average hops on 4x4 uniform ~ 2.67 external hops.
  EXPECT_GT(st.hops.mean(), 1.5);
  EXPECT_LT(st.hops.mean(), 5.0);
}

TEST(Sim, LatencyGrowsWithLoad) {
  const double lat_low = Simulation(quick(0.05)).run().packet_latency.mean();
  const double lat_mid = Simulation(quick(0.25)).run().packet_latency.mean();
  EXPECT_GT(lat_mid, lat_low);
}

TEST(Sim, ThroughputTracksOfferedLoadBelowSaturation) {
  Simulation sim(quick(0.2));
  const SimStats st = sim.run();
  EXPECT_NEAR(st.throughput_flits_per_node_cycle(), 0.2, 0.04);
}

TEST(Sim, SaturationDetected) {
  // Uniform 4x4 XY mesh saturates near ~0.45-0.6 flits/node/cycle;
  // offering 1.0 builds a backlog the drain window cannot absorb.
  SimConfig cfg = quick(1.0);
  cfg.measure_cycles = 3000;
  cfg.drain_limit_cycles = 500;
  Simulation sim(cfg);
  sim.run();
  EXPECT_TRUE(sim.saturated());
}

TEST(Sim, DeterministicAcrossRuns) {
  const SimStats a = Simulation(quick(0.2)).run();
  const SimStats b = Simulation(quick(0.2)).run();
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_DOUBLE_EQ(a.packet_latency.mean(), b.packet_latency.mean());
}

TEST(Sim, SeedsChangeOutcome) {
  SimConfig c1 = quick(0.2), c2 = quick(0.2);
  c2.seed = 99;
  const SimStats a = Simulation(c1).run();
  const SimStats b = Simulation(c2).run();
  EXPECT_NE(a.packets_injected, b.packets_injected);
}

TEST(Sim, TorusRunsDeadlockFree) {
  SimConfig cfg = quick(0.2, TrafficPattern::kTornado);
  cfg.topology = TopologyKind::kTorus;
  Simulation sim(cfg);
  const SimStats st = sim.run();
  EXPECT_FALSE(sim.saturated());
  EXPECT_EQ(st.packets_injected, st.packets_ejected);
}

// Every traffic pattern must run to completion at moderate load.
class PatternSweep : public ::testing::TestWithParam<TrafficPattern> {};

TEST_P(PatternSweep, RunsConservesPackets) {
  SimConfig cfg = quick(0.1, GetParam());
  Simulation sim(cfg);
  const SimStats st = sim.run();
  EXPECT_FALSE(sim.saturated()) << traffic_name(GetParam());
  EXPECT_EQ(st.packets_injected, st.packets_ejected)
      << traffic_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternSweep,
    ::testing::Values(TrafficPattern::kUniform, TrafficPattern::kTranspose,
                      TrafficPattern::kBitComplement,
                      TrafficPattern::kBitReverse, TrafficPattern::kHotspot,
                      TrafficPattern::kTornado, TrafficPattern::kNeighbor),
    [](const auto& info) { return traffic_name(info.param); });

}  // namespace
}  // namespace lain::noc
