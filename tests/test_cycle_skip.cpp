// test_cycle_skip.cpp — the event-driven cycle-skip contract: stepping
// only components with work and jumping the clock across fabric-wide
// quiescence must not change ANY observable result — SimStats, power
// and gating columns, idle-run histograms, the windowed metrics
// series — on either engine, either topology, any shard count or
// partition shape.  Comparisons use exact equality on doubles on
// purpose (the same FP operations must run in the same order).

#include <gtest/gtest.h>

#include <vector>

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

// The acceptance pin: cycle skip vs per-cycle stepping, serial vs
// sharded (1/2/4/8 x rows/blocks2d), mesh and torus — all identical.
TEST(CycleSkip, BitIdenticalToPerCycleAllEnginesAndTopologies) {
  for (TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    SimConfig slow_cfg = low_rate(topo, 0.02);
    slow_cfg.enable_idle_fastpath = false;
    Simulation slow(slow_cfg);
    const SimStats reference = slow.run();
    EXPECT_EQ(slow.skipped_cycles(), 0);
    EXPECT_FALSE(slow.saturated());

    SimConfig skip_cfg = low_rate(topo, 0.02);
    skip_cfg.enable_cycle_skip = true;
    Simulation skipping(skip_cfg);
    expect_bit_identical(reference, skipping.run());
    EXPECT_FALSE(skipping.saturated());

    for (PartitionStrategy partition :
         {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
      for (int shards : {1, 2, 4, 8}) {
        ShardedOptions o;
        o.shards = shards;
        o.partition = partition;
        ShardedSimulation sim(skip_cfg, o);
        expect_bit_identical(reference, sim.run());
      }
    }
  }
}

TEST(CycleSkip, ActuallySkipsOnSparseTraffic) {
  // At 0.002 flits/node/cycle the fabric is empty most of the time;
  // the run must cover a meaningful share of it by jumping the clock,
  // on the serial engine and at every shard count.
  SimConfig cfg = low_rate(TopologyKind::kMesh, 0.002);
  cfg.enable_cycle_skip = true;
  Simulation serial(cfg);
  serial.run();
  EXPECT_GT(serial.skipped_cycles(), serial.now() / 10);
  for (int shards : {2, 8}) {
    ShardedOptions o;
    o.shards = shards;
    o.partition = PartitionStrategy::kBlocks2D;
    ShardedSimulation sim(cfg, o);
    sim.run();
    EXPECT_GT(sim.skipped_cycles(), 0) << shards << " shards";
  }
}

TEST(CycleSkip, DeferredIdleAccountingMatchesPerCycle) {
  // idle_fast_ticks counts every deferred-idle router cycle as it is
  // flushed; after a full run its total must equal the idle fast
  // path's per-cycle count (both equal total idle router cycles).
  const SimConfig fast_cfg = low_rate(TopologyKind::kMesh, 0.03);
  Simulation fast(fast_cfg);
  fast.run();
  SimConfig skip_cfg = fast_cfg;
  skip_cfg.enable_cycle_skip = true;
  Simulation skipping(skip_cfg);
  skipping.run();
  EXPECT_EQ(fast.now(), skipping.now());
  EXPECT_GT(skipping.idle_fast_ticks(), 0);
  EXPECT_EQ(fast.idle_fast_ticks(), skipping.idle_fast_ticks());
}

TEST(CycleSkip, PatternsWithSilentNodesIdentical) {
  // Transpose parks every diagonal node (dst == src is discarded and
  // the node never generates): the arrival scan must stay bounded and
  // RNG-exact.  Hotspot draws a variable number of randoms per cycle:
  // the pre-drawn arrival stream must consume exactly the per-cycle
  // sequence.
  for (TrafficPattern pattern :
       {TrafficPattern::kTranspose, TrafficPattern::kHotspot,
        TrafficPattern::kNeighbor}) {
    SimConfig slow_cfg = low_rate(TopologyKind::kMesh, 0.04);
    slow_cfg.pattern = pattern;
    slow_cfg.enable_idle_fastpath = false;
    Simulation slow(slow_cfg);
    const SimStats reference = slow.run();

    SimConfig skip_cfg = slow_cfg;
    skip_cfg.enable_idle_fastpath = true;
    skip_cfg.enable_cycle_skip = true;
    Simulation skipping(skip_cfg);
    expect_bit_identical(reference, skipping.run());
    ShardedOptions o;
    o.shards = 4;
    o.partition = PartitionStrategy::kBlocks2D;
    ShardedSimulation sharded(skip_cfg, o);
    expect_bit_identical(reference, sharded.run());
  }
}

TEST(CycleSkip, WindowedMetricsSeriesIdentical) {
  // PR 7/8 contract: the windowed series (used by streaming telemetry
  // and sweep-service window verdicts) must flush at the same exact
  // boundaries with the same exact stats — a skip never jumps a
  // window edge.
  struct WindowRec {
    std::int64_t index;
    Cycle begin;
    Cycle end;
    std::int64_t injected;
    std::int64_t ejected;
    double latency_mean;
    Cycle measured;
  };
  auto run_windows = [](SimKernel& sim) {
    std::vector<WindowRec> out;
    sim.set_metrics_window(64, [&out](const SimKernel::MetricsWindow& w) {
      out.push_back({w.index, w.begin, w.end, w.stats.packets_injected,
                     w.stats.packets_ejected, w.stats.packet_latency.mean(),
                     w.stats.measured_cycles});
    });
    sim.run();
    return out;
  };

  SimConfig slow_cfg = low_rate(TopologyKind::kMesh, 0.02);
  slow_cfg.enable_idle_fastpath = false;
  Simulation slow(slow_cfg);
  const std::vector<WindowRec> reference = run_windows(slow);
  ASSERT_GT(reference.size(), 5u);

  SimConfig skip_cfg = low_rate(TopologyKind::kMesh, 0.02);
  skip_cfg.enable_cycle_skip = true;
  Simulation skipping(skip_cfg);
  ShardedOptions o;
  o.shards = 4;
  o.partition = PartitionStrategy::kBlocks2D;
  ShardedSimulation sharded(skip_cfg, o);
  for (const std::vector<WindowRec>& got :
       {run_windows(skipping), run_windows(sharded)}) {
    ASSERT_EQ(reference.size(), got.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].index, got[i].index);
      EXPECT_EQ(reference[i].begin, got[i].begin);
      EXPECT_EQ(reference[i].end, got[i].end);
      EXPECT_EQ(reference[i].injected, got[i].injected);
      EXPECT_EQ(reference[i].ejected, got[i].ejected);
      EXPECT_EQ(reference[i].latency_mean, got[i].latency_mean);
      EXPECT_EQ(reference[i].measured, got[i].measured);
    }
  }
}

TEST(CycleSkip, PowerAndGatingColumnsUnaffected) {
  // The full powered pipeline: leakage accrual, sleep-controller
  // decisions and realized savings all ride on the per-cycle power
  // hook sequence, which batched idle accounting must replay exactly.
  core::LainContext ctx;
  for (xbar::Scheme scheme : {xbar::Scheme::kSDPC, xbar::Scheme::kSDFC}) {
    core::NocRunSpec spec;
    spec.scheme = scheme;
    spec.sim = core::default_mesh_config(0.05, TrafficPattern::kUniform, 5);
    spec.enable_gating = true;
    const core::NocRunResult slow = ctx.run_noc(spec);
    spec.cycle_skip = true;
    const core::NocRunResult skip = ctx.run_noc(spec);
    EXPECT_EQ(slow.avg_packet_latency_cycles, skip.avg_packet_latency_cycles);
    EXPECT_EQ(slow.throughput_flits_node_cycle,
              skip.throughput_flits_node_cycle);
    EXPECT_EQ(slow.network_power_w, skip.network_power_w);
    EXPECT_EQ(slow.crossbar_power_w, skip.crossbar_power_w);
    EXPECT_EQ(slow.standby_fraction, skip.standby_fraction);
    EXPECT_EQ(slow.realized_saving_w, skip.realized_saving_w);
    EXPECT_EQ(slow.saturated, skip.saturated);
  }
}

TEST(CycleSkip, IdleRunHistogramUnaffected) {
  // The idle-period histogram is exactly the statistic a skipped
  // cycle must still extend: every deferred idle cycle lands in the
  // router's current idle run when flushed.
  const SimConfig cfg =
      core::default_mesh_config(0.05, TrafficPattern::kUniform, 9);
  core::LainContext ctx;
  const Histogram slow = ctx.idle_histogram(cfg);
  core::RunOptions skipping;
  skipping.cycle_skip = true;
  const Histogram skip = ctx.idle_histogram(cfg, skipping);
  EXPECT_GT(slow.count(), 0);
  EXPECT_EQ(slow.count(), skip.count());
  EXPECT_TRUE(slow.bins() == skip.bins());
}

TEST(CycleSkip, BareSteppingAdvancesOneCyclePerStep) {
  // Without run()'s skip cap a bare step advances exactly one cycle
  // (executed or skipped), so step-count semantics stay comparable
  // with the per-cycle engines — and the fabric state agrees at every
  // cycle boundary.
  SimConfig slow_cfg = low_rate(TopologyKind::kMesh, 0.05);
  slow_cfg.warmup_cycles = 0;
  slow_cfg.measure_cycles = 1;
  SimConfig skip_cfg = slow_cfg;
  skip_cfg.enable_cycle_skip = true;
  Simulation slow(slow_cfg);
  Simulation skipping(skip_cfg);
  for (int i = 0; i < 500; ++i) {
    slow.step();
    skipping.step();
  }
  EXPECT_EQ(slow.now(), 500);
  EXPECT_EQ(skipping.now(), 500);
  std::int64_t slow_inj = 0, skip_inj = 0, slow_ej = 0, skip_ej = 0;
  for (NodeId n = 0; n < slow.network().num_nodes(); ++n) {
    slow_inj += slow.network().nic(n).flits_injected();
    skip_inj += skipping.network().nic(n).flits_injected();
    slow_ej += slow.network().nic(n).flits_ejected();
    skip_ej += skipping.network().nic(n).flits_ejected();
  }
  EXPECT_GT(slow_inj, 0);
  EXPECT_EQ(slow_inj, skip_inj);
  EXPECT_EQ(slow_ej, skip_ej);
  EXPECT_EQ(slow.network().flits_in_flight(),
            skipping.network().flits_in_flight());
}

TEST(CycleSkip, SaturationAndDrainBehaviorUnchanged) {
  // Past saturation nothing is skippable, but the run-loop exit
  // conditions (drain limit, tracked-pending) must trip identically.
  SimConfig slow_cfg = low_rate(TopologyKind::kMesh, 0.60);
  slow_cfg.measure_cycles = 300;
  slow_cfg.drain_limit_cycles = 200;
  slow_cfg.enable_idle_fastpath = false;
  Simulation slow(slow_cfg);
  const SimStats reference = slow.run();
  SimConfig skip_cfg = slow_cfg;
  skip_cfg.enable_idle_fastpath = true;
  skip_cfg.enable_cycle_skip = true;
  Simulation skipping(skip_cfg);
  expect_bit_identical(reference, skipping.run());
  EXPECT_TRUE(slow.saturated());
  EXPECT_TRUE(skipping.saturated());
  EXPECT_EQ(slow.now(), skipping.now());
}

TEST(CycleSkip, ObserversForcePerCycleStepping) {
  // Observers have an every-cycle contract: with one attached the
  // kernel must quietly run per-cycle (identical results, no skips);
  // attaching one after event stepping began is a logic error.
  SimConfig cfg = low_rate(TopologyKind::kMesh, 0.02);
  cfg.enable_cycle_skip = true;
  Simulation sim(cfg);
  std::int64_t observed_cycles = 0;
  sim.set_observer([&observed_cycles](int, const ShardPlan&) {
    return make_observer_slice(
        [&observed_cycles](Cycle, Network&, const ShardPlan&) {
          ++observed_cycles;
        });
  });
  sim.run();
  EXPECT_EQ(sim.skipped_cycles(), 0);
  EXPECT_EQ(observed_cycles, static_cast<std::int64_t>(sim.now()));

  Simulation late(cfg);
  late.step();
  EXPECT_THROW(late.set_observer([](int, const ShardPlan&) {
    return make_observer_slice([](Cycle, Network&, const ShardPlan&) {});
  }),
               std::logic_error);
}

TEST(CycleSkip, FlitTraceIdenticalAcrossModes) {
  SimConfig slow_cfg = low_rate(TopologyKind::kMesh, 0.02);
  slow_cfg.enable_idle_fastpath = false;
  Simulation slow(slow_cfg);
  slow.enable_flit_trace(1 << 16);
  slow.run();
  const std::vector<FlitTraceEvent> reference = slow.collect_flit_trace();
  ASSERT_GT(reference.size(), 0u);
  EXPECT_EQ(slow.flit_trace_dropped(), 0);

  SimConfig skip_cfg = low_rate(TopologyKind::kMesh, 0.02);
  skip_cfg.enable_cycle_skip = true;
  Simulation skipping(skip_cfg);
  skipping.enable_flit_trace(1 << 16);
  skipping.run();
  const std::vector<FlitTraceEvent> got = skipping.collect_flit_trace();
  EXPECT_EQ(skipping.flit_trace_dropped(), 0);
  ASSERT_EQ(reference.size(), got.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].cycle, got[i].cycle);
    EXPECT_EQ(reference[i].packet, got[i].packet);
    EXPECT_EQ(reference[i].node, got[i].node);
    EXPECT_EQ(reference[i].kind, got[i].kind);
  }
}

}  // namespace
}  // namespace lain::noc
