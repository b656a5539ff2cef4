#include "noc/parallel/partition.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace lain::noc {

namespace {

// Folds a node -> shard assignment into a full plan: per-shard tile
// lists, exchange-phase link and channel lists (each channel advanced
// by its consumer's shard, as the kernels require) and the exact
// boundary-link count from the wired fabric.
PartitionPlan from_assignment(const Network& net, PartitionStrategy strategy,
                              int num_shards, std::vector<int> shard_of) {
  PartitionPlan plan;
  plan.strategy = strategy;
  plan.shard_of = std::move(shard_of);
  plan.shards.resize(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    plan.shards[static_cast<std::size_t>(s)].index = s;
  }
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    const int s = plan.shard_of[static_cast<std::size_t>(n)];
    plan.shards[static_cast<std::size_t>(s)].nodes.push_back(n);
  }
  auto shard = [&](NodeId n) -> ShardPlan& {
    return plan.shards[static_cast<std::size_t>(
        plan.shard_of[static_cast<std::size_t>(n)])];
  };
  for (int li = 0; li < net.num_links(); ++li) {
    ShardPlan& owner = shard(net.link_owner(li));
    ShardPlan& source = shard(net.link_source(li));
    if (&owner == &source) {
      owner.links.push_back(li);
    } else {
      owner.boundary_channels.push_back(Network::channel_id(li, false));
      source.boundary_channels.push_back(Network::channel_id(li, true));
      ++plan.boundary_links;
    }
  }
  return plan;
}

PartitionPlan row_bands(const Network& net, int num_shards) {
  const int nodes = net.num_nodes();
  std::vector<int> shard_of(static_cast<std::size_t>(nodes));
  for (int s = 0; s < num_shards; ++s) {
    const NodeId begin = static_cast<NodeId>(
        (static_cast<std::int64_t>(nodes) * s) / num_shards);
    const NodeId end = static_cast<NodeId>(
        (static_cast<std::int64_t>(nodes) * (s + 1)) / num_shards);
    for (NodeId n = begin; n < end; ++n) {
      shard_of[static_cast<std::size_t>(n)] = s;
    }
  }
  PartitionPlan plan =
      from_assignment(net, PartitionStrategy::kRowBands, num_shards,
                      std::move(shard_of));
  plan.grid_x = 1;
  plan.grid_y = num_shards;
  return plan;
}

// Proportional split of `extent` cells into `blocks` intervals, then
// inverted into a cell -> block lookup.  Matches the RowBands range
// arithmetic dimension-wise, so prime radices get off-by-one blocks
// instead of empty ones (unless blocks > extent, where empties are
// unavoidable and permitted).
std::vector<int> block_of_cell(int extent, int blocks) {
  std::vector<int> lookup(static_cast<std::size_t>(extent), 0);
  for (int b = 0; b < blocks; ++b) {
    const int begin = static_cast<int>(
        (static_cast<std::int64_t>(extent) * b) / blocks);
    const int end = static_cast<int>(
        (static_cast<std::int64_t>(extent) * (b + 1)) / blocks);
    for (int c = begin; c < end; ++c) lookup[static_cast<std::size_t>(c)] = b;
  }
  return lookup;
}

PartitionPlan blocks2d(const Network& net, int num_shards) {
  const SimConfig& cfg = net.config();
  PartitionPlan best;
  bool have_best = false;
  // Every factorization gx * gy == num_shards, scored by the exact
  // boundary-link count it produces on this fabric.  Ties go to the
  // more square grid, then to the first one enumerated (smallest
  // gx) — both deterministic.
  for (int gx = 1; gx <= num_shards; ++gx) {
    if (num_shards % gx != 0) continue;
    const int gy = num_shards / gx;
    const std::vector<int> bx = block_of_cell(cfg.radix_x, gx);
    const std::vector<int> by = block_of_cell(cfg.radix_y, gy);
    std::vector<int> shard_of(static_cast<std::size_t>(net.num_nodes()));
    for (int y = 0; y < cfg.radix_y; ++y) {
      for (int x = 0; x < cfg.radix_x; ++x) {
        shard_of[static_cast<std::size_t>(y * cfg.radix_x + x)] =
            by[static_cast<std::size_t>(y)] * gx +
            bx[static_cast<std::size_t>(x)];
      }
    }
    PartitionPlan plan =
        from_assignment(net, PartitionStrategy::kBlocks2D, num_shards,
                        std::move(shard_of));
    plan.grid_x = gx;
    plan.grid_y = gy;
    const bool better =
        !have_best || plan.boundary_links < best.boundary_links ||
        (plan.boundary_links == best.boundary_links &&
         std::abs(plan.grid_x - plan.grid_y) <
             std::abs(best.grid_x - best.grid_y));
    if (better) {
      best = std::move(plan);
      have_best = true;
    }
  }
  return best;
}

}  // namespace

const char* partition_name(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kRowBands: return "rows";
    case PartitionStrategy::kBlocks2D: return "blocks2d";
    case PartitionStrategy::kAuto: return "auto";
  }
  return "?";
}

PartitionStrategy partition_from_name(const std::string& name) {
  if (name == "rows") return PartitionStrategy::kRowBands;
  if (name == "blocks2d") return PartitionStrategy::kBlocks2D;
  if (name == "auto") return PartitionStrategy::kAuto;
  throw std::invalid_argument("unknown partition strategy: " + name +
                              " (expected rows|blocks2d|auto)");
}

PartitionPlan make_partition(const Network& net, PartitionStrategy strategy,
                             int num_shards) {
  num_shards = std::max(1, std::min(num_shards, net.num_nodes()));
  switch (strategy) {
    case PartitionStrategy::kRowBands:
      return row_bands(net, num_shards);
    case PartitionStrategy::kBlocks2D:
      return blocks2d(net, num_shards);
    case PartitionStrategy::kAuto: {
      PartitionPlan rows = row_bands(net, num_shards);
      PartitionPlan blocks = blocks2d(net, num_shards);
      return blocks.boundary_links < rows.boundary_links ? std::move(blocks)
                                                         : std::move(rows);
    }
  }
  throw std::invalid_argument("unknown partition strategy");
}

}  // namespace lain::noc
