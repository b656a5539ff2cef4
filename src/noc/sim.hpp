// sim.hpp — the serial simulation engine.
//
// One shard covering the whole fabric, stepped inline on the calling
// thread: the sharded engine (noc/parallel/sharded_sim.hpp) with one
// shard, so it runs the same step sequence with no barriers and no
// worker threads.  For any SimConfig+seed the two produce bit-identical
// SimStats at any shard count.

#pragma once

#include "noc/parallel/sharded_sim.hpp"

namespace lain::noc {

class Simulation final : public ShardedSimulation {
 public:
  explicit Simulation(const SimConfig& cfg)
      : ShardedSimulation(cfg, ShardedOptions{/*shards=*/1}) {}
};

}  // namespace lain::noc
