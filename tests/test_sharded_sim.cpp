// test_sharded_sim.cpp — the sharded parallel kernel's determinism
// contract: for any SimConfig+seed, ShardedSimulation produces
// SimStats bit-identical to the serial Simulation at every shard
// count and for every partition shape.  These comparisons use exact
// equality on doubles on purpose.

#include "noc/parallel/sharded_sim.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "noc/sim.hpp"

namespace lain::noc {
namespace {

SimConfig mesh8(double rate, TrafficPattern p = TrafficPattern::kUniform) {
  SimConfig cfg;
  cfg.radix_x = 8;
  cfg.radix_y = 8;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.pattern = p;
  cfg.injection_rate = rate;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  cfg.drain_limit_cycles = 6000;
  cfg.seed = 7;
  return cfg;
}

void expect_bit_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  // Exact double equality: the merge path must reproduce the serial
  // sums bit-for-bit, not approximately.
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

ShardedOptions opts(int shards, PartitionStrategy partition) {
  ShardedOptions o;
  o.shards = shards;
  o.partition = partition;
  return o;
}

// The acceptance pin: serial vs 1/2/4/8 shards, row bands and 2D
// blocks, all identical.
TEST(ShardedSim, BitIdenticalToSerialAt1248ShardsBothPartitions) {
  Simulation serial(mesh8(0.10));
  const SimStats reference = serial.run();
  EXPECT_FALSE(serial.saturated());
  for (PartitionStrategy partition :
       {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
    for (int shards : {1, 2, 4, 8}) {
      ShardedSimulation sim(mesh8(0.10), opts(shards, partition));
      EXPECT_EQ(sim.num_shards(), shards);
      const SimStats st = sim.run();
      EXPECT_FALSE(sim.saturated())
          << shards << " shards, " << partition_name(partition);
      expect_bit_identical(reference, st);
    }
  }
}

TEST(ShardedSim, BitIdenticalOnTorusWithTornadoBothPartitions) {
  SimConfig cfg = mesh8(0.15, TrafficPattern::kTornado);
  cfg.topology = TopologyKind::kTorus;
  const SimStats reference = Simulation(cfg).run();
  {
    // Uneven 64/3 split exercises ranges.
    ShardedSimulation sim(cfg, opts(3, PartitionStrategy::kRowBands));
    expect_bit_identical(reference, sim.run());
  }
  for (int shards : {2, 4, 8}) {
    ShardedSimulation sim(cfg, opts(shards, PartitionStrategy::kBlocks2D));
    expect_bit_identical(reference, sim.run());
  }
}

TEST(ShardedSim, BitIdenticalWithBurstyHotspotTraffic) {
  // Bursty on-off modulation + hotspot addressing: the per-node RNG
  // and burst state must stay node-local under sharding.
  SimConfig cfg = mesh8(0.08, TrafficPattern::kHotspot);
  cfg.burst_duty = 0.4;
  cfg.burst_on_mean_cycles = 30.0;
  cfg.hotspot_fraction = 0.3;
  cfg.hotspot_node = 27;
  const SimStats reference = Simulation(cfg).run();
  for (PartitionStrategy partition :
       {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D,
        PartitionStrategy::kAuto}) {
    ShardedSimulation sim(cfg, opts(4, partition));
    expect_bit_identical(reference, sim.run());
  }
}

TEST(ShardedSim, SaturationDecisionMatchesSerial) {
  SimConfig cfg = mesh8(1.0);
  cfg.measure_cycles = 1500;
  cfg.drain_limit_cycles = 300;
  Simulation serial(cfg);
  const SimStats a = serial.run();
  ShardedSimulation sharded(cfg, opts(4, PartitionStrategy::kBlocks2D));
  const SimStats b = sharded.run();
  EXPECT_TRUE(serial.saturated());
  EXPECT_TRUE(sharded.saturated());
  EXPECT_EQ(serial.now(), sharded.now());
  expect_bit_identical(a, b);
}

// Every shard steps its own routers on its own thread: shard 0 on the
// calling thread, shards 1..3 each on a worker of their own, every
// cycle on the same one.  A PowerHook on each router sees the thread
// that ticks it (per-cycle stepping: every router ticks every cycle).
TEST(ShardedSim, WorkerShardsStepOnWorkerThreads) {
  SimConfig cfg = mesh8(0.05);
  cfg.warmup_cycles = 10;
  cfg.measure_cycles = 50;
  ShardedSimulation sim(cfg, opts(4, PartitionStrategy::kBlocks2D));
  ASSERT_FALSE(sim.event_stepping());

  struct ThreadTap final : PowerHook {
    Cycle ticks = 0;
    std::thread::id thread;
    bool one_thread = true;
    bool xbar_ready() override { return true; }
    void on_cycle(const RouterEvents&) override {
      const std::thread::id self = std::this_thread::get_id();
      if (ticks++ == 0) {
        thread = self;
      } else if (self != thread) {
        one_thread = false;
      }
    }
  };
  std::vector<ThreadTap> taps(static_cast<std::size_t>(cfg.num_nodes()));
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    sim.network().router(n).set_power_hook(&taps[static_cast<std::size_t>(n)]);
  }
  sim.run();

  const PartitionPlan& plan = sim.partition();
  ASSERT_EQ(plan.num_shards(), 4);
  std::vector<std::thread::id> shard_thread;
  for (const ShardPlan& sh : plan.shards) {
    ASSERT_FALSE(sh.nodes.empty());
    shard_thread.push_back(taps[static_cast<std::size_t>(sh.nodes[0])].thread);
    for (NodeId n : sh.nodes) {
      const ThreadTap& tap = taps[static_cast<std::size_t>(n)];
      EXPECT_EQ(tap.ticks, sim.now()) << "router " << n;
      EXPECT_TRUE(tap.one_thread) << "router " << n;
      EXPECT_EQ(tap.thread, shard_thread.back()) << "router " << n;
    }
  }
  EXPECT_EQ(shard_thread[0], std::this_thread::get_id());
  const std::set<std::thread::id> threads(shard_thread.begin(),
                                          shard_thread.end());
  EXPECT_EQ(threads.size(), 4u);
}

TEST(ShardedSim, AutoShardsPolicy) {
  SimConfig small = mesh8(0.1);
  small.radix_x = 5;
  small.radix_y = 5;
  // Explicit requests are honoured, clamped to the node count.
  EXPECT_EQ(ShardedSimulation::auto_shards(small, 4), 4);
  EXPECT_EQ(ShardedSimulation::auto_shards(small, 100), 25);
  // Auto: small fabrics stay serial; big ones shard up to the row
  // count (bounded by whatever the hardware offers).
  EXPECT_EQ(ShardedSimulation::auto_shards(small, 0), 1);
  SimConfig big = mesh8(0.1);
  big.radix_x = 16;
  big.radix_y = 16;
  const int auto_shards = ShardedSimulation::auto_shards(big, 0);
  EXPECT_GE(auto_shards, 1);
  EXPECT_LE(auto_shards, 16);
}

TEST(ShardedSim, PoweredRunMatchesSerialBitForBitBothPartitions) {
  // The whole powered pipeline — gating stalls included — is
  // per-router state, so even power numbers must agree exactly.
  core::NocRunSpec spec;
  spec.scheme = xbar::Scheme::kSDPC;
  spec.sim = core::default_mesh_config(0.1, TrafficPattern::kUniform, 3);
  spec.sim_threads = 1;
  core::LainContext ctx;
  const core::NocRunResult serial = ctx.run_noc(spec);
  for (PartitionStrategy partition :
       {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
    spec.sim_threads = 4;
    spec.partition = partition;
    const core::NocRunResult sharded = ctx.run_noc(spec);
    EXPECT_EQ(serial.avg_packet_latency_cycles,
              sharded.avg_packet_latency_cycles);
    EXPECT_EQ(serial.throughput_flits_node_cycle,
              sharded.throughput_flits_node_cycle);
    EXPECT_EQ(serial.crossbar_power_w, sharded.crossbar_power_w);
    EXPECT_EQ(serial.standby_fraction, sharded.standby_fraction);
    EXPECT_EQ(serial.realized_saving_w, sharded.realized_saving_w);
  }
}

TEST(ShardedSim, IdleHistogramMatchesSerialBothPartitions) {
  const SimConfig cfg = core::default_mesh_config(
      0.05, TrafficPattern::kUniform, 11);
  core::LainContext ctx;
  const Histogram a = ctx.idle_histogram(cfg);
  for (PartitionStrategy partition :
       {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
    core::RunOptions sharded;
    sharded.sim_threads = 5;
    sharded.partition = partition;
    const Histogram b = ctx.idle_histogram(cfg, sharded);
    EXPECT_EQ(a.count(), b.count());
    EXPECT_TRUE(a.bins() == b.bins());
  }
}

TEST(ShardedSim, PinThreadsIsWallClockOnly) {
  // Pinning is best-effort and must never change results — including
  // on machines where the affinity call fails or is unsupported.
  SimConfig cfg = mesh8(0.10);
  const SimStats reference = Simulation(cfg).run();
  ShardedOptions o = opts(4, PartitionStrategy::kBlocks2D);
  o.pin_threads = true;
  ShardedSimulation sim(cfg, o);
  expect_bit_identical(reference, sim.run());
}

TEST(ShardedSim, StepApiAndReuseAcrossCycles) {
  // Manual stepping keeps the worker pool parked between cycles; the
  // cycle counter and fabric stay consistent with the serial engine.
  SimConfig cfg = mesh8(0.2);
  Simulation serial(cfg);
  ShardedSimulation sharded(cfg, opts(4, PartitionStrategy::kBlocks2D));
  for (int i = 0; i < 50; ++i) {
    serial.step();
    sharded.step();
  }
  EXPECT_EQ(serial.now(), sharded.now());
  EXPECT_EQ(serial.network().flits_in_flight(),
            sharded.network().flits_in_flight());
}

}  // namespace
}  // namespace lain::noc
