// test_cycle_skip.cpp — the stepping identity matrix.  The kernel steps
// event-driven at every rate (step only components with work, jump the
// clock across fabric-wide quiescence).  That may not change ANY
// observable result against the per-cycle reference pipeline
// (enable_idle_fastpath = false) — SimStats, power and gating columns,
// idle-run histograms, the windowed metrics series, the flit trace —
// on either topology, serially or at any shard count and partition
// shape, sparse or dense.  Comparisons use exact equality on doubles on
// purpose (the same FP operations must run in the same order).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"

namespace lain::noc {
namespace {

// A sparse load, where the 8x8 fabric is empty most cycles and the
// kernel skips them, and a dense one, where it rarely can.
constexpr double kSparse = 0.005;
constexpr double kDense = 0.05;

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

SimConfig reference_of(SimConfig cfg) {
  cfg.enable_idle_fastpath = false;
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

// One traffic shape of the matrix.  The bursty shape keeps the sparse
// average but injects at ten times it while a node is ON, so bursts
// contend for routers and links.
struct Load {
  const char* name;
  double rate;
  double burst_duty;
};

// The acceptance pin for one load: event stepping vs the per-cycle
// reference, serial vs sharded (1/2/4/8 x rows/blocks2d), mesh and
// torus — all identical.
void expect_identical_on_every_engine(const Load& load) {
  SCOPED_TRACE(load.name);
  for (TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    SimConfig cfg = low_rate(topo, load.rate);
    cfg.burst_duty = load.burst_duty;
    Simulation slow(reference_of(cfg));
    const SimStats reference = slow.run();
    EXPECT_FALSE(slow.event_stepping());
    EXPECT_EQ(slow.skipped_cycles(), 0);
    EXPECT_EQ(slow.idle_fast_ticks(), 0);
    EXPECT_FALSE(slow.saturated());

    Simulation serial(cfg);
    expect_bit_identical(reference, serial.run());
    EXPECT_TRUE(serial.event_stepping());
    EXPECT_FALSE(serial.saturated());
    // The fabric is idle most of the time on every load here: the
    // deferred event-idle spans must carry most router-cycles.
    EXPECT_GT(serial.idle_fast_ticks(),
              static_cast<std::int64_t>(serial.now()) * 64 / 4);

    for (PartitionStrategy partition :
         {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
      for (int shards : {1, 2, 4, 8}) {
        ShardedOptions o;
        o.shards = shards;
        o.partition = partition;
        ShardedSimulation sim(cfg, o);
        expect_bit_identical(reference, sim.run());
        EXPECT_TRUE(sim.event_stepping())
            << shards << " shards, " << partition_name(partition);
        EXPECT_GT(sim.idle_fast_ticks(), 0)
            << shards << " shards, " << partition_name(partition);
      }
    }
  }
}

// Sparse loads: the fabric is empty most cycles and the kernel skips
// them.
TEST(CycleSkip, BitIdenticalToPerCycleAllEnginesAndTopologies) {
  expect_identical_on_every_engine({"sparse", kSparse, 1.0});
  expect_identical_on_every_engine({"sparse bursty", kSparse, 0.1});
}

// The dense load: event stepping against the forced slow path
// (enable_idle_fastpath = false) where few cycles can be skipped.
TEST(IdleFastPath, BitIdenticalToForcedSlowPathAllEnginesAndTopologies) {
  expect_identical_on_every_engine({"dense", kDense, 1.0});
}

TEST(CycleSkip, KernelStepsEventDrivenAtEveryRate) {
  // The rule itself, fixed at construction: event stepping whenever
  // the idle fast path is on, from sparse traffic to saturation,
  // serially and sharded, and sparse runs skip cycles.  The reference
  // path steps per-cycle and skips none.
  auto skipped = [](const SimConfig& cfg, int shards, bool event) {
    ShardedOptions o;
    o.shards = shards;
    o.partition = PartitionStrategy::kBlocks2D;
    ShardedSimulation sim(cfg, o);
    EXPECT_EQ(sim.event_stepping(), event);
    sim.run();
    EXPECT_EQ(sim.event_stepping(), event);
    return sim.skipped_cycles();
  };
  for (int shards : {1, 4}) {
    for (double rate : {0.002, kDense, 0.6}) {
      SCOPED_TRACE(std::to_string(shards) + " shards at " +
                   std::to_string(rate));
      SimConfig cfg = low_rate(TopologyKind::kMesh, rate);
      cfg.measure_cycles = 300;
      cfg.drain_limit_cycles = 200;
      const std::int64_t event_skipped = skipped(cfg, shards, true);
      if (rate == 0.002) {
        EXPECT_GT(event_skipped, 0);
      }
      EXPECT_EQ(skipped(reference_of(cfg), shards, false), 0);
    }
  }
}

TEST(CycleSkip, ActuallySkipsOnSparseTraffic) {
  // At 0.002 flits/node/cycle the fabric is empty most of the time;
  // the run must cover a meaningful share of it by jumping the clock,
  // on the serial engine and at every shard count.
  const SimConfig cfg = low_rate(TopologyKind::kMesh, 0.002);
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
  // flushed; after a full run its total must equal the number of
  // router-cycles that begin quiescent.  The reference run counts
  // those: a one-cycle metrics window (warmup 0, so windows tile the
  // run from cycle 0) sums the routers' quiescence at every boundary,
  // i.e. at the start of every cycle after the first.
  SimConfig cfg = low_rate(TopologyKind::kMesh, kSparse);
  cfg.warmup_cycles = 0;
  Simulation reference(reference_of(cfg));
  std::vector<std::pair<Cycle, std::int64_t>> boundaries;
  reference.set_metrics_window(1, [&](const SimKernel::MetricsWindow& w) {
    std::int64_t q = 0;
    for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
      if (reference.network().router(n).quiescent()) ++q;
    }
    boundaries.emplace_back(w.end, q);
  });
  reference.run();
  ASSERT_FALSE(boundaries.empty());
  ASSERT_EQ(boundaries.back().first, reference.now());
  boundaries.pop_back();  // the run's end begins no cycle
  std::int64_t quiescent = cfg.num_nodes();  // cycle 0: every router
  for (const auto& b : boundaries) quiescent += b.second;

  Simulation skipping(cfg);
  skipping.run();
  EXPECT_TRUE(skipping.event_stepping());
  EXPECT_EQ(reference.now(), skipping.now());
  EXPECT_GT(skipping.idle_fast_ticks(), 0);
  EXPECT_EQ(skipping.idle_fast_ticks(), quiescent);
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
    SimConfig cfg = low_rate(TopologyKind::kMesh, kSparse);
    cfg.pattern = pattern;
    Simulation slow(reference_of(cfg));
    const SimStats reference = slow.run();

    Simulation skipping(cfg);
    expect_bit_identical(reference, skipping.run());
    EXPECT_TRUE(skipping.event_stepping());
    ShardedOptions o;
    o.shards = 4;
    o.partition = PartitionStrategy::kBlocks2D;
    ShardedSimulation sharded(cfg, o);
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

  const SimConfig cfg = low_rate(TopologyKind::kMesh, kSparse);
  Simulation slow(reference_of(cfg));
  const std::vector<WindowRec> reference = run_windows(slow);
  ASSERT_GT(reference.size(), 5u);

  Simulation skipping(cfg);
  ShardedOptions o;
  o.shards = 4;
  o.partition = PartitionStrategy::kBlocks2D;
  ShardedSimulation sharded(cfg, o);
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
  EXPECT_GT(skipping.skipped_cycles(), 0);
  EXPECT_GT(sharded.skipped_cycles(), 0);
}

// The full powered pipeline: leakage accrual, sleep-controller
// decisions and realized savings all ride on the per-cycle power hook
// sequence, which the idle fast path and batched event-idle accounting
// must replay exactly.
void expect_power_columns_identical(double rate) {
  core::LainContext ctx;
  for (xbar::Scheme scheme : {xbar::Scheme::kSDPC, xbar::Scheme::kSDFC}) {
    core::NocRunSpec spec;
    spec.scheme = scheme;
    spec.sim = core::default_mesh_config(rate, TrafficPattern::kUniform, 5);
    spec.enable_gating = true;
    const core::NocRunResult chosen = ctx.run_noc(spec);
    spec.sim.enable_idle_fastpath = false;
    const core::NocRunResult slow = ctx.run_noc(spec);
    EXPECT_EQ(slow.avg_packet_latency_cycles,
              chosen.avg_packet_latency_cycles);
    EXPECT_EQ(slow.throughput_flits_node_cycle,
              chosen.throughput_flits_node_cycle);
    EXPECT_EQ(slow.network_power_w, chosen.network_power_w);
    EXPECT_EQ(slow.crossbar_power_w, chosen.crossbar_power_w);
    EXPECT_EQ(slow.standby_fraction, chosen.standby_fraction);
    EXPECT_EQ(slow.realized_saving_w, chosen.realized_saving_w);
    EXPECT_EQ(slow.saturated, chosen.saturated);
  }
}

TEST(CycleSkip, PowerAndGatingColumnsUnaffected) {
  expect_power_columns_identical(kSparse);
}

TEST(IdleFastPath, PowerAndGatingColumnsUnaffected) {
  expect_power_columns_identical(kDense);
}

// The idle-period histogram is exactly the statistic a collapsed or
// skipped cycle must still extend: every idle cycle lands in the
// router's current idle run, per cycle or when flushed.
void expect_idle_histogram_identical(double rate) {
  core::LainContext ctx;
  core::RunOptions sharded;
  sharded.sim_threads = 4;
  const SimConfig cfg =
      core::default_mesh_config(rate, TrafficPattern::kUniform, 9);
  const Histogram slow = ctx.idle_histogram(reference_of(cfg));
  EXPECT_GT(slow.count(), 0);
  for (const Histogram& got :
       {ctx.idle_histogram(cfg), ctx.idle_histogram(cfg, sharded)}) {
    EXPECT_EQ(slow.count(), got.count());
    EXPECT_TRUE(slow.bins() == got.bins());
  }
}

TEST(CycleSkip, IdleRunHistogramUnaffected) {
  expect_idle_histogram_identical(kSparse);
}

TEST(IdleFastPath, IdleRunHistogramUnaffected) {
  expect_idle_histogram_identical(kDense);
}

TEST(CycleSkip, BareSteppingAdvancesOneCyclePerStep) {
  // Without run()'s skip cap a bare step advances exactly one cycle
  // (executed or skipped), so step-count semantics stay comparable
  // with per-cycle stepping — and the fabric state agrees at every
  // cycle boundary.
  SimConfig cfg = low_rate(TopologyKind::kMesh, kSparse);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1;
  Simulation slow(reference_of(cfg));
  Simulation skipping(cfg);
  for (int i = 0; i < 500; ++i) {
    slow.step();
    skipping.step();
  }
  EXPECT_TRUE(skipping.event_stepping());
  EXPECT_GT(skipping.skipped_cycles(), 0);
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
  // The run-loop exit conditions (drain limit, tracked-pending) must
  // trip identically under event stepping: past saturation, where
  // nothing is skippable, and on sparse traffic whose drain limit ends
  // the run with packets still in flight.
  SimConfig saturating = low_rate(TopologyKind::kMesh, 0.60);
  saturating.measure_cycles = 300;
  saturating.drain_limit_cycles = 200;
  // 16x16 at the sparse rate keeps ~10 packets in flight on average,
  // so a one-cycle drain limit always leaves some undelivered.
  SimConfig cut_short = low_rate(TopologyKind::kMesh, kSparse);
  cut_short.radix_x = 16;
  cut_short.radix_y = 16;
  cut_short.drain_limit_cycles = 1;
  for (const SimConfig& cfg : {saturating, cut_short}) {
    Simulation slow(reference_of(cfg));
    const SimStats reference = slow.run();
    Simulation chosen(cfg);
    expect_bit_identical(reference, chosen.run());
    EXPECT_TRUE(chosen.event_stepping());
    EXPECT_TRUE(slow.saturated());
    EXPECT_TRUE(chosen.saturated());
    EXPECT_EQ(slow.now(), chosen.now());
  }
}

TEST(CycleSkip, FlitTraceIdenticalAcrossModes) {
  const SimConfig cfg = low_rate(TopologyKind::kMesh, kSparse);
  Simulation slow(reference_of(cfg));
  slow.enable_flit_trace(1 << 16);
  slow.run();
  const std::vector<FlitTraceEvent> reference = slow.collect_flit_trace();
  ASSERT_GT(reference.size(), 0u);
  EXPECT_EQ(slow.flit_trace_dropped(), 0);

  Simulation skipping(cfg);
  skipping.enable_flit_trace(1 << 16);
  skipping.run();
  EXPECT_TRUE(skipping.event_stepping());
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

TEST(IdleFastPath, FastTickCountIsDeterministicAcrossShardLayouts) {
  // The quiescence predicate reads only pre-cycle state, so even the
  // per-run fast-tick TOTAL must agree between engines and layouts,
  // per-cycle or event-stepped.
  for (double rate : {kSparse, 0.03}) {
    const SimConfig cfg = low_rate(TopologyKind::kMesh, rate);
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
      EXPECT_EQ(sim.idle_fast_ticks(), reference)
          << shards << " shards at " << rate;
    }
  }
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
