#include "noc/traffic.hpp"

#include <cassert>
#include <stdexcept>

namespace lain::noc {
namespace {

// Bit-reversal of the node index within ceil(log2(N)) bits.
NodeId bit_reverse(NodeId id, int num_nodes) {
  int bits = 0;
  while ((1 << bits) < num_nodes) ++bits;
  NodeId r = 0;
  for (int i = 0; i < bits; ++i) {
    if (id & (1 << i)) r |= 1 << (bits - 1 - i);
  }
  return r % num_nodes;
}

}  // namespace

NodeId pattern_destination(TrafficPattern pattern, NodeId src,
                           const SimConfig& cfg, Rng& rng) {
  const RouteContext ctx = cfg.route_context();
  const int n = cfg.num_nodes();
  const MeshCoord c = coord_of(src, ctx);
  switch (pattern) {
    case TrafficPattern::kUniform: {
      return static_cast<NodeId>(rng.next_below(static_cast<uint64_t>(n)));
    }
    case TrafficPattern::kTranspose: {
      // Requires a square fabric; validated by the generator ctor.
      return node_of(MeshCoord{c.y, c.x}, ctx);
    }
    case TrafficPattern::kBitComplement: {
      return node_of(MeshCoord{cfg.radix_x - 1 - c.x, cfg.radix_y - 1 - c.y},
                     ctx);
    }
    case TrafficPattern::kBitReverse: {
      return bit_reverse(src, n);
    }
    case TrafficPattern::kHotspot: {
      if (rng.bernoulli(cfg.hotspot_fraction)) return cfg.hotspot_node;
      return static_cast<NodeId>(rng.next_below(static_cast<uint64_t>(n)));
    }
    case TrafficPattern::kTornado: {
      // Half-way around in X (classic adversarial torus pattern).
      return node_of(
          MeshCoord{(c.x + (cfg.radix_x - 1) / 2) % cfg.radix_x, c.y}, ctx);
    }
    case TrafficPattern::kNeighbor: {
      return node_of(MeshCoord{(c.x + 1) % cfg.radix_x, c.y}, ctx);
    }
  }
  throw std::invalid_argument("unknown traffic pattern");
}

TrafficGenerator::TrafficGenerator(const SimConfig& cfg) : cfg_(cfg) {
  cfg.validate();
  if (cfg.pattern == TrafficPattern::kTranspose &&
      cfg.radix_x != cfg.radix_y) {
    throw std::invalid_argument("transpose traffic needs a square fabric");
  }
  rngs_.reserve(static_cast<size_t>(cfg.num_nodes()));
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    rngs_.emplace_back(mix_seed(cfg.seed, static_cast<std::uint64_t>(n)));
  }
  modulated_ = cfg.burst_duty < 1.0;
  // ON-state rate scaled to preserve the long-run average.
  inject_ = BernoulliThreshold(cfg.injection_rate / cfg.packet_length_flits /
                               cfg.burst_duty);
  on_.assign(static_cast<size_t>(cfg.num_nodes()), 1);
  arrivals_.assign(static_cast<size_t>(cfg.num_nodes()), NodeArrival{});
  // Geometric dwell times: mean ON dwell = burst_on_mean_cycles, and
  // the OFF dwell follows from the duty cycle.
  turn_off_ = BernoulliThreshold(1.0 / cfg.burst_on_mean_cycles);
  const double off_mean =
      cfg.burst_on_mean_cycles * (1.0 - cfg.burst_duty) / cfg.burst_duty;
  turn_on_ = BernoulliThreshold(off_mean > 0.0 ? 1.0 / off_mean : 1.0);
}

bool TrafficGenerator::is_on(NodeId src) const {
  return on_.at(static_cast<size_t>(src)) != 0;
}

bool TrafficGenerator::injects(Rng& rng, bool& on) const {
  if (modulated_ && rng.bernoulli(on ? turn_off_ : turn_on_)) on = !on;
  return on && rng.bernoulli(inject_);
}

NodeId TrafficGenerator::maybe_generate(NodeId src) {
  const auto i = static_cast<size_t>(src);
  Rng& rng = rngs_.at(i);
  bool on = on_[i] != 0;
  const bool inject = injects(rng, on);
  on_[i] = on ? 1 : 0;
  if (!inject) return kInvalidNode;
  const NodeId dst = pattern_destination(cfg_.pattern, src, cfg_, rng);
  if (dst == src) return kInvalidNode;  // no self traffic
  return dst;
}

Cycle TrafficGenerator::next_arrival(NodeId src, Cycle horizon) {
  const auto i = static_cast<size_t>(src);
  NodeArrival& a = arrivals_.at(i);
  if (a.pending_cycle != kNoArrival) {
    return a.pending_cycle < horizon ? a.pending_cycle : kNoArrival;
  }
  while (a.clock < horizon) {
    // The scan runs on copies, so the stream stays in registers; the
    // node's state is written back once, where the scan stops.
    Rng rng = rngs_[i];
    bool on = on_[i] != 0;
    Cycle cycle = a.clock;
    while (cycle < horizon && !injects(rng, on)) ++cycle;
    rngs_[i] = rng;
    on_[i] = on ? 1 : 0;
    if (cycle == horizon) {
      a.clock = horizon;
      return kNoArrival;
    }
    a.clock = cycle + 1;
    const NodeId dst = pattern_destination(cfg_.pattern, src, cfg_, rngs_[i]);
    if (dst != src) {  // a self-addressed packet is dropped: scan on
      a.pending_cycle = cycle;
      a.pending_dst = dst;
      return cycle;
    }
  }
  return kNoArrival;
}

NodeId TrafficGenerator::take_arrival(NodeId src) {
  NodeArrival& a = arrivals_[static_cast<size_t>(src)];
  assert(a.pending_cycle != kNoArrival && "take_arrival without a pending one");
  a.pending_cycle = kNoArrival;
  return a.pending_dst;
}

}  // namespace lain::noc
