// partition.hpp — the topology-aware partition layer.
//
// A PartitionPlan is the static decomposition a parallel engine steps
// with: each shard's tile set, the precomputed lists of channels it
// advances in the exchange phase (every channel is advanced by the
// shard that consumes it), and — the quantity partition shape is
// chosen by — the number of boundary links, i.e. links whose
// producing and consuming routers land in different shards.  Every
// boundary link is two staging-slot publications (its flit and its
// credit channel) other shards must observe per cycle, so fewer
// boundary links means less cross-shard cache traffic per barrier
// crossing.
//
// Two strategies are implemented (plus an automatic pick):
//
//   RowBands   contiguous node ranges of the row-major fabric — the
//              original sharding.  On an X-wide mesh every band cut
//              severs 2*X links, so boundary traffic grows with mesh
//              width regardless of shard count.
//   Blocks2D   factors the shard count into a near-square gx x gy
//              grid of rectangular tile blocks.  Cuts run along both
//              axes, so a square mesh pays O(perimeter) instead of
//              O(width * cuts); on a torus the wraparound links are
//              wired in the Network and therefore counted exactly
//              like any other link.
//
// Plans are pure functions of (fabric, strategy, shard count):
// stats-affecting state never lives here, which is why every plan of
// the same fabric yields bit-identical SimStats.

#pragma once

#include <string>
#include <vector>

#include "noc/topology.hpp"

namespace lain::noc {

enum class PartitionStrategy {
  kRowBands,  // contiguous row-major node ranges
  kBlocks2D,  // near-square grid of rectangular tile blocks
  kAuto,      // whichever of the two cuts fewer boundary links
};

const char* partition_name(PartitionStrategy s);
// Accepts "rows", "blocks2d", "auto" (throws std::invalid_argument
// on anything else).
PartitionStrategy partition_from_name(const std::string& name);

// One shard's slice of the plan: its tiles and what it advances in
// the exchange phase — the links whose two ends it holds, ticked whole,
// and, of the links crossing its boundary, the channel it consumes
// (Network::channel_id: the flit channel where it holds the owner, the
// credit channel where it holds the source).
struct ShardPlan {
  int index = 0;
  std::vector<NodeId> nodes;  // ascending
  std::vector<int> links;     // ascending
  std::vector<int> boundary_channels;  // ascending
};

struct PartitionPlan {
  // The resolved strategy (never kAuto: auto resolves to the winner).
  PartitionStrategy strategy = PartitionStrategy::kRowBands;
  int grid_x = 1;  // shard grid shape; RowBands is 1 x num_shards
  int grid_y = 1;
  std::vector<ShardPlan> shards;
  std::vector<int> shard_of;  // node -> shard index
  int boundary_links = 0;     // links crossing any shard boundary

  int num_shards() const { return static_cast<int>(shards.size()); }
};

// Partitions `net` into `num_shards` shards (clamped to [1, nodes]).
// kBlocks2D scores every gx*gy == num_shards factorization by its
// exact boundary-link count on this fabric (mesh or torus) and keeps
// the best; kAuto additionally builds the RowBands plan and returns
// whichever cuts fewer boundary links (RowBands on ties).  Shards may
// be empty when num_shards has no factorization that fits the radix;
// empty shards are valid (they step nothing).
PartitionPlan make_partition(const Network& net, PartitionStrategy strategy,
                             int num_shards);

}  // namespace lain::noc
