// test_idle_fastpath.cpp — the idle fast path's bit-identity contract:
// collapsing quiescent routers to the O(1) path must not change ANY
// observable result — SimStats, power and gating columns, the idle-run
// histogram — on either engine, either topology, any shard count.
// Comparisons use exact equality on doubles on purpose.

#include <gtest/gtest.h>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"

namespace lain::noc {
namespace {

SimConfig low_rate(TopologyKind topo, double rate) {
  SimConfig cfg;
  cfg.topology = topo;
  cfg.radix_x = 8;
  cfg.radix_y = 8;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.injection_rate = rate;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 150;
  cfg.measure_cycles = 600;
  cfg.drain_limit_cycles = 6000;
  cfg.seed = 11;
  return cfg;
}

void expect_bit_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  EXPECT_EQ(a.packet_latency.mean(), b.packet_latency.mean());
  EXPECT_EQ(a.packet_latency.variance(), b.packet_latency.variance());
  EXPECT_EQ(a.packet_latency.min(), b.packet_latency.min());
  EXPECT_EQ(a.packet_latency.max(), b.packet_latency.max());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.hops.mean(), b.hops.mean());
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  EXPECT_TRUE(a.latency_hist.bins() == b.latency_hist.bins());
}

// The acceptance pin: forced slow path vs fast path, serial vs
// sharded (1/2/4/8 x rows/blocks2d), mesh and torus — all identical.
TEST(IdleFastPath, BitIdenticalToForcedSlowPathAllEnginesAndTopologies) {
  for (TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    SimConfig slow_cfg = low_rate(topo, 0.05);
    slow_cfg.enable_idle_fastpath = false;
    Simulation slow(slow_cfg);
    const SimStats reference = slow.run();
    EXPECT_EQ(slow.idle_fast_ticks(), 0);
    EXPECT_FALSE(slow.saturated());

    SimConfig fast_cfg = low_rate(topo, 0.05);
    Simulation fast(fast_cfg);
    expect_bit_identical(reference, fast.run());
    // At 0.05 flits/node/cycle the fabric is idle most of the time:
    // the fast path must actually engage, and heavily.
    EXPECT_GT(fast.idle_fast_ticks(),
              static_cast<std::int64_t>(fast.now()) * 64 / 4);

    for (PartitionStrategy partition :
         {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
      for (int shards : {1, 2, 4, 8}) {
        ShardedOptions o;
        o.shards = shards;
        o.partition = partition;
        ShardedSimulation sim(fast_cfg, o);
        expect_bit_identical(reference, sim.run());
        EXPECT_GT(sim.idle_fast_ticks(), 0)
            << shards << " shards, " << partition_name(partition);
      }
    }
  }
}

TEST(IdleFastPath, FastTickCountIsDeterministicAcrossShardLayouts) {
  // The quiescence predicate reads only pre-cycle state, so even the
  // per-run fast-tick TOTAL must agree between engines and layouts.
  const SimConfig cfg = low_rate(TopologyKind::kMesh, 0.03);
  Simulation serial(cfg);
  serial.run();
  const std::int64_t reference = serial.idle_fast_ticks();
  EXPECT_GT(reference, 0);
  for (int shards : {2, 8}) {
    ShardedOptions o;
    o.shards = shards;
    o.partition = PartitionStrategy::kBlocks2D;
    ShardedSimulation sim(cfg, o);
    sim.run();
    EXPECT_EQ(sim.idle_fast_ticks(), reference) << shards << " shards";
  }
}

TEST(IdleFastPath, PowerAndGatingColumnsUnaffected) {
  // The full powered pipeline: leakage accrual, sleep-controller
  // decisions and realized savings are all driven by the per-cycle
  // hook the fast path must keep firing.
  core::NocRunSpec spec;
  spec.scheme = xbar::Scheme::kSDPC;
  spec.sim = core::default_mesh_config(0.05, TrafficPattern::kUniform, 5);
  spec.enable_gating = true;
  core::LainContext ctx;
  const core::NocRunResult fast = ctx.run_noc(spec);
  spec.sim.enable_idle_fastpath = false;
  const core::NocRunResult slow = ctx.run_noc(spec);
  EXPECT_EQ(fast.avg_packet_latency_cycles, slow.avg_packet_latency_cycles);
  EXPECT_EQ(fast.throughput_flits_node_cycle, slow.throughput_flits_node_cycle);
  EXPECT_EQ(fast.network_power_w, slow.network_power_w);
  EXPECT_EQ(fast.crossbar_power_w, slow.crossbar_power_w);
  EXPECT_EQ(fast.standby_fraction, slow.standby_fraction);
  EXPECT_EQ(fast.realized_saving_w, slow.realized_saving_w);
  EXPECT_EQ(fast.saturated, slow.saturated);
}

TEST(IdleFastPath, IdleRunHistogramUnaffected) {
  // The idle-period histogram is exactly the statistic the fast path
  // short-circuits around: every collapsed cycle must still extend
  // the router's current idle run.
  SimConfig cfg = core::default_mesh_config(0.05, TrafficPattern::kUniform, 9);
  core::LainContext ctx;
  const Histogram fast = ctx.idle_histogram(cfg);
  cfg.enable_idle_fastpath = false;
  const Histogram slow = ctx.idle_histogram(cfg);
  EXPECT_GT(fast.count(), 0);
  EXPECT_EQ(fast.count(), slow.count());
  EXPECT_TRUE(fast.bins() == slow.bins());
}

TEST(IdleFastPath, QuiescencePredicateTracksTraffic) {
  SimConfig cfg;
  cfg.radix_x = 3;
  cfg.radix_y = 3;
  cfg.packet_length_flits = 3;
  Network net(cfg);
  // An untouched fabric is quiescent everywhere.
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).quiescent()) << "router " << n;
  }
  // Source a corner-to-corner packet and step until delivery; the
  // routers along the XY path must wake (lose quiescence) at some
  // point, and the whole fabric must settle back to quiescent.
  net.nic(0).source_packet(8, 0, 1);
  bool center_woke = false;
  for (Cycle t = 0; t < 100; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.nic(n).tick(t);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      Router& r = net.router(n);
      if (r.quiescent()) {
        r.tick_idle();
      } else {
        r.tick();
      }
    }
    center_woke |= !net.router(2).quiescent();
    net.tick_channels();
  }
  EXPECT_TRUE(center_woke);  // node 2 is on the XY path 0->1->2->5->8
  EXPECT_EQ(net.nic(8).packets_ejected(), 1);
  EXPECT_EQ(net.flits_in_flight(), 0);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_TRUE(net.router(n).quiescent()) << "router " << n;
  }
}

TEST(IdleFastPath, IdleTickKeepsActivityAndEventsConsistent) {
  SimConfig cfg;
  Network net(cfg);
  Router& r = net.router(12);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(r.quiescent());
    r.tick_idle();
  }
  EXPECT_EQ(r.activity().cycles(), 50);
  EXPECT_EQ(r.activity().busy_cycles(), 0);
  EXPECT_EQ(r.activity().traversals(), 0);
  EXPECT_EQ(r.last_events().flits_received, 0);
  EXPECT_EQ(r.last_events().flits_sent, 0);
  EXPECT_FALSE(r.last_events().demand);
  EXPECT_EQ(r.occupancy(), 0);
}

}  // namespace
}  // namespace lain::noc
