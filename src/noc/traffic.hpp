// traffic.hpp — synthetic traffic generation.
//
// Bernoulli packet injection per node per cycle; destination chosen by
// the configured spatial pattern (the standard BookSim set).
//
// Every node draws from its own RNG stream (mix_seed(cfg.seed, node))
// and keeps its own burst state, so maybe_generate(n) touches only
// node-local state.  Two consequences the kernels rely on: the stream
// a node sees is independent of the order nodes are polled in, and a
// sharded simulation can share one generator across threads without
// locks as long as each node is polled by exactly one shard.

#pragma once

#include <limits>
#include <vector>

#include "noc/config.hpp"
#include "noc/rng.hpp"

namespace lain::noc {

// Destination for a packet sourced at `src` under `pattern`.  May
// return src for patterns that map a node to itself (e.g. transpose of
// a diagonal node); callers typically skip self-addressed packets.
NodeId pattern_destination(TrafficPattern pattern, NodeId src,
                           const SimConfig& cfg, Rng& rng);

class TrafficGenerator {
 public:
  explicit TrafficGenerator(const SimConfig& cfg);

  // Should node `src` inject a packet this cycle, and to where?
  // Returns kInvalidNode when no packet is generated.  With burst
  // modulation enabled (cfg.burst_duty < 1) each node runs an
  // independent two-state on-off process; the ON-state rate is scaled
  // so the long-run average matches cfg.injection_rate.
  NodeId maybe_generate(NodeId src);

  // Whether `src` is currently in the ON phase (always true without
  // modulation).  Exposed for tests.
  bool is_on(NodeId src) const;

  // --- Event-driven interface (cycle skipping) -------------------------
  //
  // next_arrival / take_arrival make the exact per-cycle draws of
  // maybe_generate against the same per-node stream, so a kernel that
  // polls arrivals instead of cycles consumes RNG state bit-identically
  // to one that calls maybe_generate every cycle.  Each node keeps its
  // own traffic clock; the two interfaces must not be mixed on the
  // same node within one run.

  // Cycle of node `src`'s next packet arrival at or after its current
  // traffic clock, scanning no further than `horizon` (exclusive) —
  // the kernel passes the injection stop cycle, which also caps RNG
  // consumption at exactly what per-cycle polling would have drawn.
  // The scan keeps the node's stream and burst state in locals and
  // writes them back once it stops; every burst flip and injection
  // draw is one integer compare (BernoulliThreshold).  Returns the
  // arrival cycle and caches the destination, or kNoArrival when no
  // packet arrives before `horizon`.  Idempotent until
  // take_arrival(src).
  static constexpr Cycle kNoArrival = std::numeric_limits<Cycle>::max();
  Cycle next_arrival(NodeId src, Cycle horizon);

  // Consume the cached arrival for `src` (destination of the packet
  // whose cycle next_arrival returned).  Precondition: a cached
  // arrival exists.
  NodeId take_arrival(NodeId src);

 private:
  // One cycle's burst flip and injection draw on a node's stream and
  // burst state; true when that cycle injects, the destination being
  // drawn next.  maybe_generate and the arrival scan both draw here.
  bool injects(Rng& rng, bool& on) const;

  // Per-node event-driven state: the next cycle whose draw has not
  // happened yet, and the cached pending arrival (if any).
  struct NodeArrival {
    Cycle clock = 0;
    Cycle pending_cycle = kNoArrival;
    NodeId pending_dst = kInvalidNode;
  };

  SimConfig cfg_;
  std::vector<Rng> rngs_;  // per-node streams
  BernoulliThreshold inject_;  // packets / node / cycle in the ON state
  bool modulated_;
  // Per-node burst state.  uint8_t, not vector<bool>: adjacent nodes
  // may be toggled by different shards concurrently, so each node
  // needs its own addressable byte.
  std::vector<std::uint8_t> on_;
  BernoulliThreshold turn_off_;  // P[ON -> OFF] per cycle
  BernoulliThreshold turn_on_;   // P[OFF -> ON] per cycle
  // Event-driven per-node arrival state (same sharding story as on_:
  // each node's entry is touched only by the shard that owns it).
  std::vector<NodeArrival> arrivals_;
};

}  // namespace lain::noc
