// test_racecheck.cpp — the phase-aware shard race detector.
//
// Death tests seed deliberate two-phase protocol violations — the
// deterministic logic races TSan structurally cannot see — and assert
// the detector aborts with a diagnostic naming the object, the shards
// and the phase.  The clean half proves the real kernels never trip
// it: the full 1/2/4/8-shard x rows/blocks2d matrix (serial and
// sharded engine) runs to completion under the detector with stats
// bit-identical to the uninstrumented contract.
//
// The whole file is compiled into lain_tests unconditionally but only
// defines tests when LAIN_RACECHECK is on (the `racecheck` preset);
// in every other build the detector does not exist.

#include "core/contracts.hpp"

#if LAIN_RACECHECK

#include <gtest/gtest.h>

#include "noc/parallel/partition.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"

namespace lain::noc {
namespace {

using contracts::Phase;
using contracts::PhaseScope;

// A 4x4 mesh split into two row bands: nodes 0..7 in shard 0,
// nodes 8..15 in shard 1.
struct TaggedFabric {
  SimConfig cfg;
  Network net;
  PartitionPlan plan;

  TaggedFabric() : cfg(make_cfg()), net(cfg) {
    plan = make_partition(net, PartitionStrategy::kRowBands, 2);
    net.rc_tag_shards(plan.shard_of);
  }

  static SimConfig make_cfg() {
    SimConfig cfg;
    cfg.radix_x = 4;
    cfg.radix_y = 4;
    return cfg;
  }
};

TEST(RacecheckDeathTest, CrossShardMutationCaught) {
  TaggedFabric f;
  ASSERT_EQ(f.plan.shard_of[15], 1);
  // Shard 0's component phase must not tick a shard-1 router.
  PhaseScope scope(Phase::component, 0);
  EXPECT_DEATH(f.net.router(15).tick(),
               "cross-shard mutation outside the exchange phase.*"
               "router tile 15.*owner shard 1.*touched by shard 0.*"
               "component phase");
}

TEST(RacecheckDeathTest, MutationDuringExchangePhaseCaught) {
  TaggedFabric f;
  // No component may be ticked during the exchange phase, not even by
  // its owner.
  PhaseScope scope(Phase::exchange, 1);
  EXPECT_DEATH(f.net.router(15).tick(),
               "component mutated during exchange phase");
}

TEST(RacecheckDeathTest, NicCrossShardTickCaught) {
  TaggedFabric f;
  PhaseScope scope(Phase::component, 1);
  EXPECT_DEATH(f.net.nic(0).tick(0),
               "cross-shard mutation.*nic tile 0.*owner shard 0.*"
               "touched by shard 1");
}

TEST(RacecheckDeathTest, ChannelAdvanceDuringComponentPhaseCaught) {
  TaggedFabric f;
  // Channels only move in the exchange phase; advancing one from a
  // component phase would publish mid-cycle state.
  PhaseScope scope(Phase::component, 0);
  EXPECT_DEATH(f.net.tick_link(0),
               "channel advanced during component phase");
}

TEST(RacecheckDeathTest, ChannelAdvanceByNonOwnerShardCaught) {
  TaggedFabric f;
  // Find a link owned by shard 1 and tick it from shard 0's exchange
  // phase: each link must be advanced exactly once, by its owner.
  int foreign = -1;
  for (int i = 0; i < f.net.num_links(); ++i) {
    if (f.plan.shard_of[static_cast<size_t>(f.net.link_owner(i))] == 1) {
      foreign = i;
      break;
    }
  }
  ASSERT_GE(foreign, 0);
  PhaseScope scope(Phase::exchange, 0);
  EXPECT_DEATH(f.net.tick_link(foreign),
               "channel advanced by non-owner shard");
}

TEST(RacecheckDeathTest, BoundaryCreditAdvancedByLinkOwnerCaught) {
  TaggedFabric f;
  // A router link from shard 0 into shard 1: shard 1 consumes and
  // advances its flit channel, but its credits flow back to shard 0,
  // whose exchange phase alone may advance the credit channel.
  auto shard = [&](NodeId n) {
    return f.plan.shard_of[static_cast<size_t>(n)];
  };
  int crossing = -1;
  for (int i = 0; i < f.net.num_links(); ++i) {
    if (f.net.link_kind(i) == Network::LinkKind::kRouter &&
        shard(f.net.link_source(i)) == 0 && shard(f.net.link_owner(i)) == 1) {
      crossing = i;
      break;
    }
  }
  ASSERT_GE(crossing, 0);
  PhaseScope scope(Phase::exchange, 1);
  EXPECT_DEATH((void)f.net.tick_channel(Network::channel_id(crossing, true)),
               "channel advanced by non-owner shard");
}

TEST(RacecheckDeathTest, StagingSlotReadBeforePublishCaught) {
  TaggedFabric f;
  // flits_in_flight() reads every channel's staging slot — legal
  // between cycles (no phase), a race from inside a component phase
  // where other shards' producers are staging sends concurrently.
  PhaseScope scope(Phase::component, 0);
  EXPECT_DEATH((void)f.net.flits_in_flight(),
               "staging-slot read before publish");
}

TEST(RacecheckDeathTest, PhaseContractOnBareChannelCaught) {
  // LAIN_SHARD_PHASE(exchange) fires even on an untagged channel: the
  // phase contract is independent of shard ownership.
  FlitChannel ch;
  PhaseScope scope(Phase::component, 0);
  EXPECT_DEATH(ch.tick(), "must run in the exchange phase");
}

// --- the clean half: real kernels never trip the detector ----------

SimConfig low_rate(TopologyKind topo) {
  SimConfig cfg;
  cfg.topology = topo;
  cfg.radix_x = 8;
  cfg.radix_y = 8;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.injection_rate = 0.05;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 150;
  cfg.measure_cycles = 600;
  cfg.drain_limit_cycles = 6000;
  cfg.seed = 11;
  return cfg;
}

TEST(Racecheck, FullShardMatrixRunsCleanUnderDetector) {
  for (TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    const SimConfig cfg = low_rate(topo);
    Simulation serial(cfg);
    const SimStats reference = serial.run();
    for (PartitionStrategy partition :
         {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
      for (int shards : {1, 2, 4, 8}) {
        ShardedOptions o;
        o.shards = shards;
        o.partition = partition;
        ShardedSimulation sim(cfg, o);
        const SimStats st = sim.run();
        EXPECT_EQ(st.packets_injected, reference.packets_injected);
        EXPECT_EQ(st.packets_ejected, reference.packets_ejected);
        EXPECT_EQ(st.packet_latency.mean(), reference.packet_latency.mean())
            << shards << " shards, " << partition_name(partition);
      }
    }
  }
}

TEST(Racecheck, UntaggedComponentsRunFreeOutsidePhases) {
  // Standalone component use (unit tests, integrations) installs no
  // phase scope; the detector must stay silent.
  SimConfig cfg;
  cfg.radix_x = 3;
  cfg.radix_y = 3;
  Network net(cfg);
  net.nic(0).source_packet(8, 0, 1);
  for (Cycle t = 0; t < 60; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.nic(n).tick(t);
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.router(n).tick();
    net.tick_channels();
  }
  EXPECT_EQ(net.nic(8).packets_ejected(), 1);
  EXPECT_EQ(net.flits_in_flight(), 0);
}

}  // namespace
}  // namespace lain::noc

#endif  // LAIN_RACECHECK
