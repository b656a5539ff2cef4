// test_partition.cpp — the topology-aware partition planner: every
// plan must cover the fabric exactly (each node owned by one shard,
// each channel advanced by one shard), count boundary links correctly
// on mesh and torus (wraparound included), and Blocks2D must never cut
// more links than RowBands on square meshes — strictly fewer on wide
// ones.

#include "noc/parallel/partition.hpp"

#include <gtest/gtest.h>

#include <set>

namespace lain::noc {
namespace {

SimConfig grid(int rx, int ry, TopologyKind topo = TopologyKind::kMesh) {
  SimConfig cfg;
  cfg.radix_x = rx;
  cfg.radix_y = ry;
  cfg.topology = topo;
  return cfg;
}

// Every node in exactly one shard and shard_of consistent with the
// tile lists; every channel advanced by exactly one shard, its
// consumer's (the link owner's for flits, the link source's for
// credits); `links` holding only links whose two ends share the shard;
// and two boundary channels per boundary link.
void expect_exact_cover(const Network& net, const PartitionPlan& plan) {
  auto shard_of = [&](NodeId n) {
    return plan.shard_of[static_cast<std::size_t>(n)];
  };
  auto crosses = [&](int li) {
    return shard_of(net.link_source(li)) != shard_of(net.link_owner(li));
  };
  std::set<NodeId> nodes;
  std::set<int> channels;
  std::size_t boundary_channels = 0;
  for (const ShardPlan& sh : plan.shards) {
    for (NodeId n : sh.nodes) {
      EXPECT_TRUE(nodes.insert(n).second) << "node " << n << " double-owned";
      EXPECT_EQ(shard_of(n), sh.index);
    }
    auto advance = [&](int c) {
      const int li = c / 2;
      const NodeId consumer =
          c % 2 != 0 ? net.link_source(li) : net.link_owner(li);
      EXPECT_TRUE(channels.insert(c).second)
          << "channel " << c << " advanced twice";
      EXPECT_EQ(shard_of(consumer), sh.index) << "channel " << c;
    };
    for (int li : sh.links) {
      EXPECT_FALSE(crosses(li)) << "link " << li << " crosses shards";
      advance(Network::channel_id(li, false));
      advance(Network::channel_id(li, true));
    }
    for (int c : sh.boundary_channels) {
      EXPECT_TRUE(crosses(c / 2)) << "channel " << c << " is internal";
      advance(c);
    }
    boundary_channels += sh.boundary_channels.size();
  }
  EXPECT_EQ(static_cast<int>(nodes.size()), net.num_nodes());
  EXPECT_EQ(static_cast<int>(channels.size()), 2 * net.num_links());
  EXPECT_EQ(static_cast<int>(boundary_channels), 2 * plan.boundary_links);
}

TEST(Partition, RowBandsMatchesContiguousRanges) {
  const Network net(grid(8, 8));
  const PartitionPlan plan =
      make_partition(net, PartitionStrategy::kRowBands, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  EXPECT_EQ(plan.strategy, PartitionStrategy::kRowBands);
  expect_exact_cover(net, plan);
  // The original engine's arithmetic: shard s covers [64s/4, 64(s+1)/4).
  for (int s = 0; s < 4; ++s) {
    const ShardPlan& sh = plan.shards[static_cast<std::size_t>(s)];
    ASSERT_EQ(sh.nodes.size(), 16u);
    EXPECT_EQ(sh.nodes.front(), s * 16);
    EXPECT_EQ(sh.nodes.back(), s * 16 + 15);
  }
  // 3 cuts x 8 columns x 2 directions.
  EXPECT_EQ(plan.boundary_links, 48);
}

TEST(Partition, Blocks2DFactorsNearSquare) {
  const Network net(grid(8, 8));
  const PartitionPlan plan =
      make_partition(net, PartitionStrategy::kBlocks2D, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  EXPECT_EQ(plan.strategy, PartitionStrategy::kBlocks2D);
  EXPECT_EQ(plan.grid_x, 2);
  EXPECT_EQ(plan.grid_y, 2);
  expect_exact_cover(net, plan);
  for (const ShardPlan& sh : plan.shards) EXPECT_EQ(sh.nodes.size(), 16u);
  // One vertical + one horizontal cut, 8 links x 2 directions each.
  EXPECT_EQ(plan.boundary_links, 32);
}

TEST(Partition, PrimeRadixMeshGetsUnevenButExactBlocks) {
  const Network net(grid(7, 7));
  for (int shards : {2, 3, 4, 6}) {
    const PartitionPlan plan =
        make_partition(net, PartitionStrategy::kBlocks2D, shards);
    ASSERT_EQ(plan.num_shards(), shards) << shards;
    expect_exact_cover(net, plan);
    for (const ShardPlan& sh : plan.shards) {
      EXPECT_FALSE(sh.nodes.empty()) << shards << " shards";
    }
  }
}

TEST(Partition, ShardsExceedingRowsStillPartition) {
  const Network net(grid(4, 4));
  for (PartitionStrategy strategy :
       {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D,
        PartitionStrategy::kAuto}) {
    const PartitionPlan plan = make_partition(net, strategy, 8);
    ASSERT_EQ(plan.num_shards(), 8) << partition_name(strategy);
    expect_exact_cover(net, plan);
  }
  // And shard counts above the node count clamp to it.
  const PartitionPlan clamped =
      make_partition(net, PartitionStrategy::kBlocks2D, 100);
  EXPECT_EQ(clamped.num_shards(), 16);
  expect_exact_cover(net, clamped);
}

TEST(Partition, Blocks2DNoWorseThanRowsOnSquareMeshes) {
  for (int radix : {4, 8, 16}) {
    const Network net(grid(radix, radix));
    for (int shards : {2, 4, 8}) {
      const int rows =
          make_partition(net, PartitionStrategy::kRowBands, shards)
              .boundary_links;
      const int blocks =
          make_partition(net, PartitionStrategy::kBlocks2D, shards)
              .boundary_links;
      EXPECT_LE(blocks, rows) << radix << "x" << radix << ", " << shards;
    }
  }
}

// The acceptance pin: on a 32x32 mesh at 4+ shards, 2D blocks cut
// strictly fewer links than row bands.
TEST(Partition, Blocks2DStrictlyBeatsRowsOn32x32At4PlusShards) {
  const Network net(grid(32, 32));
  for (int shards : {4, 8, 16}) {
    const PartitionPlan rows =
        make_partition(net, PartitionStrategy::kRowBands, shards);
    const PartitionPlan blocks =
        make_partition(net, PartitionStrategy::kBlocks2D, shards);
    EXPECT_LT(blocks.boundary_links, rows.boundary_links) << shards;
  }
  // Spot-check the arithmetic at 4 shards: rows cut 3 x 32 x 2 = 192
  // links, a 2x2 block grid cuts 2 x 32 x 2 = 128.
  EXPECT_EQ(make_partition(net, PartitionStrategy::kRowBands, 4)
                .boundary_links,
            192);
  EXPECT_EQ(make_partition(net, PartitionStrategy::kBlocks2D, 4)
                .boundary_links,
            128);
}

TEST(Partition, TorusWraparoundLinksAreCounted) {
  // 4x4, two row bands.  Mesh: one cut of 4 columns x 2 directions =
  // 8.  Torus: the Y wrap links (row 3 <-> row 0) cross the same
  // bands, doubling it; the X wrap links stay within their band.
  const Network mesh(grid(4, 4, TopologyKind::kMesh));
  const Network torus(grid(4, 4, TopologyKind::kTorus));
  EXPECT_EQ(make_partition(mesh, PartitionStrategy::kRowBands, 2)
                .boundary_links,
            8);
  EXPECT_EQ(make_partition(torus, PartitionStrategy::kRowBands, 2)
                .boundary_links,
            16);
  // Blocks on the torus count both axes' wraps.  2x2 on 4x4 torus:
  // every block borders its neighbours twice per axis (cut + wrap):
  // 2 cuts x 4 x 2 + 2 wraps x 4 x 2 = 32.
  const PartitionPlan blocks =
      make_partition(torus, PartitionStrategy::kBlocks2D, 4);
  expect_exact_cover(torus, blocks);
  EXPECT_EQ(blocks.boundary_links, 32);
}

TEST(Partition, AutoPicksTheCheaperPlan) {
  // Wide mesh, 4 shards: blocks win.
  const Network wide(grid(32, 32));
  const PartitionPlan auto_wide =
      make_partition(wide, PartitionStrategy::kAuto, 4);
  EXPECT_EQ(auto_wide.strategy, PartitionStrategy::kBlocks2D);
  EXPECT_EQ(auto_wide.boundary_links,
            make_partition(wide, PartitionStrategy::kBlocks2D, 4)
                .boundary_links);
  // One shard: both plans are the whole fabric; ties resolve to rows.
  const Network small(grid(4, 4));
  const PartitionPlan one = make_partition(small, PartitionStrategy::kAuto, 1);
  EXPECT_EQ(one.num_shards(), 1);
  EXPECT_EQ(one.strategy, PartitionStrategy::kRowBands);
  EXPECT_EQ(one.boundary_links, 0);
}

TEST(Partition, NamesRoundTrip) {
  for (PartitionStrategy s :
       {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D,
        PartitionStrategy::kAuto}) {
    EXPECT_EQ(partition_from_name(partition_name(s)), s);
  }
  EXPECT_THROW(partition_from_name("diagonal"), std::invalid_argument);
}

}  // namespace
}  // namespace lain::noc
