// test_fault.cpp — fault injection & self-healing contract:
//
//   * a single permanent link kill on the mesh degrades gracefully —
//     every injected packet is still delivered (adaptive escape
//     routing + retransmission), and the lost/retransmit columns
//     conserve exactly,
//   * a router kill needs --allow-partition and accounts every
//     unreachable pair,
//   * a transient flap repairs and the fabric returns to full
//     connectivity,
//   * the degraded run stays bit-identical across engines, shard
//     counts, partition shapes and topologies, with and without
//     cycle skipping,
//   * with faults disabled the new columns are identically zero.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "noc/fault.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"

namespace lain::noc {
namespace {

SimConfig faulty(TopologyKind topo, double rate) {
  SimConfig cfg;
  cfg.topology = topo;
  cfg.radix_x = 8;
  cfg.radix_y = 8;
  // Mesh: 1 normal + 1 escape VC.  Torus needs two dateline classes
  // plus the escape VC.
  cfg.vcs = topo == TopologyKind::kTorus ? 3 : 2;
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
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.flits_lost, b.flits_lost);
  EXPECT_EQ(a.packets_retransmitted, b.packets_retransmitted);
  EXPECT_EQ(a.packets_unreachable_dropped, b.packets_unreachable_dropped);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  EXPECT_EQ(a.packet_latency.mean(), b.packet_latency.mean());
  EXPECT_EQ(a.packet_latency.variance(), b.packet_latency.variance());
  EXPECT_EQ(a.packet_latency.max(), b.packet_latency.max());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.hops.mean(), b.hops.mean());
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  EXPECT_TRUE(a.latency_hist.bins() == b.latency_hist.bins());
}

// Conservation at drain: every measured injection (including
// retransmissions) was either delivered or purged by a fault.
void expect_conserved(const SimStats& st) {
  EXPECT_EQ(st.packets_injected, st.packets_ejected + st.packets_lost);
  EXPECT_EQ(st.flits_injected, st.flits_ejected + st.flits_lost);
}

// The acceptance pin: one permanent link kill on the 8x8 mesh at
// 0.02 flits/node/cycle — graceful degradation, not packet loss.
TEST(Fault, SingleLinkKillMeshDeliversEverything) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.02);
  cfg.fault.links = 1;
  cfg.fault.at = 400;  // mid-measurement: the fabric is carrying load
  // Seed pinned so the victim link is carrying a worm at the kill
  // cycle (losses come only from flits physically on the dead link).
  cfg.fault.seed = 2;
  Simulation sim(cfg);
  const SimStats st = sim.run();
  EXPECT_FALSE(sim.saturated());
  // The kill purged in-flight worms...
  EXPECT_GT(st.packets_lost, 0);
  EXPECT_EQ(st.flits_lost, st.packets_lost * cfg.packet_length_flits);
  // ...every loss was retransmitted (a mesh minus one link stays
  // connected), and everything was eventually delivered.
  EXPECT_EQ(st.packets_retransmitted, st.packets_lost);
  EXPECT_EQ(st.packets_unreachable_dropped, 0);
  expect_conserved(st);
  EXPECT_EQ(sim.unreachable_pairs(), 0);
}

// Degraded bit-identity: serial per-cycle vs cycle-skip vs sharded
// 1/2/4/8 x rows/blocks2d, mesh and torus.
TEST(Fault, BitIdenticalAcrossEnginesAndTopologiesDegraded) {
  for (TopologyKind topo : {TopologyKind::kMesh, TopologyKind::kTorus}) {
    SimConfig slow_cfg = faulty(topo, 0.02);
    slow_cfg.fault.links = 2;
    slow_cfg.fault.at = 400;
    slow_cfg.enable_idle_fastpath = false;
    Simulation slow(slow_cfg);
    const SimStats reference = slow.run();
    expect_conserved(reference);

    SimConfig skip_cfg = slow_cfg;
    skip_cfg.enable_idle_fastpath = true;
    skip_cfg.enable_cycle_skip = true;
    Simulation skipping(skip_cfg);
    expect_bit_identical(reference, skipping.run());

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

// A fault plan whose worst state disconnects the fabric is rejected
// with a diagnostic unless --allow-partition accepts it; a router kill
// always disconnects its node.
TEST(Fault, RouterKillRequiresAllowPartition) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.02);
  cfg.fault.routers = 1;
  cfg.fault.at = 400;
  EXPECT_THROW(Simulation{cfg}, std::runtime_error);

  cfg.fault.allow_partition = true;
  Simulation sim(cfg);
  const SimStats st = sim.run();
  EXPECT_FALSE(sim.saturated());
  // One dead node out of 64: 2 * 63 ordered pairs become unreachable.
  EXPECT_EQ(sim.unreachable_pairs(), 2 * 63);
  // Losses with no live route (and traffic addressed to / sourced at
  // the dead node) are accounted, everything else is delivered.
  EXPECT_GT(st.packets_unreachable_dropped, 0);
  expect_conserved(st);
}

TEST(Fault, ImpossiblePlansRejected) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.02);
  cfg.fault.links = 10000;  // more than the fabric has
  EXPECT_THROW(Simulation{cfg}, std::invalid_argument);

  // The escape VC reservation needs headroom: mesh >= 2 VCs, torus
  // >= 3 (dateline classes + escape).
  SimConfig mesh1 = faulty(TopologyKind::kMesh, 0.02);
  mesh1.vcs = 1;
  mesh1.fault.links = 1;
  EXPECT_THROW(mesh1.validate(), std::invalid_argument);
  SimConfig torus2 = faulty(TopologyKind::kTorus, 0.02);
  torus2.vcs = 2;
  torus2.fault.links = 1;
  EXPECT_THROW(torus2.validate(), std::invalid_argument);
}

// Transient flap: the link dies, repairs, and the fabric returns to
// full connectivity — traffic keeps flowing throughout.
TEST(Fault, TransientFlapRepairsAndRecovers) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.02);
  cfg.fault.links = 1;
  cfg.fault.at = 300;
  cfg.fault.repair = 200;  // back up at 500, mid-measurement
  Simulation sim(cfg);

  std::vector<FaultReport> reports;
  sim.set_fault_callback(
      [&reports](const FaultReport& r) { reports.push_back(r); });
  const SimStats st = sim.run();
  EXPECT_FALSE(sim.saturated());
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(reports[0].at, 300);
  EXPECT_EQ(reports[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(reports[1].at, 500);
  EXPECT_EQ(reports[1].unreachable_pairs, 0);
  EXPECT_EQ(sim.unreachable_pairs(), 0);
  EXPECT_EQ(st.packets_unreachable_dropped, 0);
  expect_conserved(st);
}

// Fault + cycle skip composition: after the last fault event the
// event kernel must resume skipping on sparse traffic (the due-cycle
// clamp may not pin the clock forever).
TEST(Fault, CycleSkipStillSkipsAfterFaults) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.002);
  cfg.fault.links = 1;
  cfg.fault.at = 300;
  cfg.enable_cycle_skip = true;
  Simulation sim(cfg);
  const SimStats st = sim.run();
  expect_conserved(st);
  EXPECT_GT(sim.skipped_cycles(), sim.now() / 10);
}

// Saturation + fault: the escape layer must stay deadlock-free under
// full load — the router keeps making forward progress after the kill
// (a wedged escape CDG would freeze ejections).
TEST(Fault, NoDeadlockAtSaturation) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.60);
  cfg.measure_cycles = 300;
  cfg.drain_limit_cycles = 3000;
  cfg.fault.links = 1;
  cfg.fault.at = 200;
  Simulation sim(cfg);
  const SimStats st = sim.run();
  // The run may trip the drain limit (it is saturated), but ejections
  // must keep flowing through and after the reconfiguration.
  EXPECT_GT(st.packets_ejected, st.packets_injected / 2);
  EXPECT_LE(st.packets_ejected + st.packets_lost, st.packets_injected);
}

// Faults disabled: the new columns are identically zero and the run
// takes the exact pre-fault code paths (no fault controller).
TEST(Fault, DisabledIsInert) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.02);
  Simulation sim(cfg);
  EXPECT_EQ(sim.fault_controller(), nullptr);
  const SimStats st = sim.run();
  EXPECT_EQ(st.packets_lost, 0);
  EXPECT_EQ(st.flits_lost, 0);
  EXPECT_EQ(st.packets_retransmitted, 0);
  EXPECT_EQ(st.packets_unreachable_dropped, 0);
  EXPECT_EQ(sim.unreachable_pairs(), 0);
}

// The schedule is a pure function of (fault seed, fabric): same seed
// -> same events; different seed -> (almost surely) different victim.
TEST(Fault, PlanIsSeedDeterministic) {
  SimConfig cfg = faulty(TopologyKind::kMesh, 0.02);
  cfg.fault.links = 1;
  cfg.fault.seed = 7;
  const Network net(cfg);
  const FaultPlan a = FaultPlan::build(cfg, net);
  const FaultPlan b = FaultPlan::build(cfg, net);
  ASSERT_EQ(a.events().size(), 1u);
  ASSERT_EQ(b.events().size(), 1u);
  EXPECT_EQ(a.events()[0].link, b.events()[0].link);
  EXPECT_EQ(a.events()[0].at, cfg.fault.at > 0 ? cfg.fault.at
                                               : cfg.warmup_cycles);
}

}  // namespace
}  // namespace lain::noc
