#include "noc/traffic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace lain::noc {
namespace {

SimConfig cfg5(TrafficPattern p, double rate = 0.2) {
  SimConfig cfg;
  cfg.radix_x = 5;
  cfg.radix_y = 5;
  cfg.pattern = p;
  cfg.injection_rate = rate;
  return cfg;
}

TEST(Traffic, PatternNamesRoundTrip) {
  for (TrafficPattern p :
       {TrafficPattern::kUniform, TrafficPattern::kTranspose,
        TrafficPattern::kBitComplement, TrafficPattern::kBitReverse,
        TrafficPattern::kHotspot, TrafficPattern::kTornado,
        TrafficPattern::kNeighbor}) {
    EXPECT_EQ(traffic_from_name(traffic_name(p)), p);
  }
  EXPECT_THROW(traffic_from_name("chaos"), std::invalid_argument);
}

TEST(Traffic, TransposeMapsCoordinates) {
  const SimConfig cfg = cfg5(TrafficPattern::kTranspose);
  Rng rng(1);
  const RouteContext ctx = cfg.route_context();
  const NodeId src = node_of(MeshCoord{1, 3}, ctx);
  EXPECT_EQ(pattern_destination(TrafficPattern::kTranspose, src, cfg, rng),
            node_of(MeshCoord{3, 1}, ctx));
  // Diagonal maps to itself.
  const NodeId diag = node_of(MeshCoord{2, 2}, ctx);
  EXPECT_EQ(pattern_destination(TrafficPattern::kTranspose, diag, cfg, rng),
            diag);
}

TEST(Traffic, BitComplementMirrors) {
  const SimConfig cfg = cfg5(TrafficPattern::kBitComplement);
  Rng rng(1);
  const RouteContext ctx = cfg.route_context();
  EXPECT_EQ(pattern_destination(TrafficPattern::kBitComplement,
                                node_of(MeshCoord{0, 0}, ctx), cfg, rng),
            node_of(MeshCoord{4, 4}, ctx));
}

TEST(Traffic, NeighborShiftsEast) {
  const SimConfig cfg = cfg5(TrafficPattern::kNeighbor);
  Rng rng(1);
  const RouteContext ctx = cfg.route_context();
  EXPECT_EQ(pattern_destination(TrafficPattern::kNeighbor,
                                node_of(MeshCoord{4, 2}, ctx), cfg, rng),
            node_of(MeshCoord{0, 2}, ctx));
}

TEST(Traffic, HotspotFraction) {
  SimConfig cfg = cfg5(TrafficPattern::kHotspot);
  cfg.hotspot_node = 12;
  cfg.hotspot_fraction = 0.5;
  Rng rng(3);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += pattern_destination(TrafficPattern::kHotspot, 3, cfg, rng) == 12;
  }
  // 50 % directed plus uniform spillover (1/25 of the rest).
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.5 + 0.5 / 25.0, 0.02);
}

TEST(Traffic, GeneratorRateMatchesRequest) {
  SimConfig cfg = cfg5(TrafficPattern::kUniform, 0.32);
  cfg.packet_length_flits = 4;
  TrafficGenerator gen(cfg);
  int packets = 0;
  const int cycles = 50000;
  for (int t = 0; t < cycles; ++t) {
    if (gen.maybe_generate(7) != kInvalidNode) ++packets;
  }
  // flit rate = packets * len / cycles ~ 0.32 (minus self-traffic skips).
  const double flit_rate = packets * 4.0 / cycles;
  EXPECT_NEAR(flit_rate, 0.32, 0.03);
}

TEST(Traffic, NoSelfTraffic) {
  SimConfig cfg = cfg5(TrafficPattern::kTranspose, 1.0);
  TrafficGenerator gen(cfg);
  const RouteContext ctx = cfg.route_context();
  const NodeId diag = node_of(MeshCoord{1, 1}, ctx);
  for (int t = 0; t < 1000; ++t) {
    EXPECT_EQ(gen.maybe_generate(diag), kInvalidNode);
  }
}

TEST(Traffic, TransposeNeedsSquare) {
  SimConfig cfg = cfg5(TrafficPattern::kTranspose);
  cfg.radix_x = 4;
  cfg.radix_y = 5;
  EXPECT_THROW(TrafficGenerator{cfg}, std::invalid_argument);
}

TEST(Traffic, DeterministicAcrossRuns) {
  SimConfig cfg = cfg5(TrafficPattern::kUniform, 0.3);
  TrafficGenerator a(cfg), b(cfg);
  for (int t = 0; t < 1000; ++t) {
    EXPECT_EQ(a.maybe_generate(t % 25), b.maybe_generate(t % 25));
  }
}

// The arrival scan against per-cycle polling on twin generators: per
// node, the (cycle, destination) of every packet must match over the
// whole run, and so must the burst state at the end.  The scan bound
// grows in chunks, as the kernel's does under bare stepping, so scans
// also stop dry at a bound and resume from the written-back state.
void expect_scan_matches_polling(const SimConfig& cfg) {
  const Cycle kCycles = 20000;
  const auto nodes = static_cast<size_t>(cfg.num_nodes());
  using Arrivals = std::vector<std::pair<Cycle, NodeId>>;
  std::vector<Arrivals> polled(nodes);
  std::vector<Arrivals> scanned(nodes);
  TrafficGenerator poll(cfg);
  for (Cycle t = 0; t < kCycles; ++t) {
    for (size_t n = 0; n < nodes; ++n) {
      const NodeId dst = poll.maybe_generate(static_cast<NodeId>(n));
      if (dst != kInvalidNode) polled[n].push_back({t, dst});
    }
  }
  TrafficGenerator scan(cfg);
  for (Cycle horizon = 0; horizon < kCycles;) {
    horizon = std::min<Cycle>(kCycles, horizon + 1237);
    for (size_t n = 0; n < nodes; ++n) {
      const auto src = static_cast<NodeId>(n);
      for (;;) {
        const Cycle c = scan.next_arrival(src, horizon);
        if (c == TrafficGenerator::kNoArrival) break;
        EXPECT_EQ(scan.next_arrival(src, horizon), c);  // idempotent
        scanned[n].push_back({c, scan.take_arrival(src)});
      }
    }
  }
  size_t packets = 0;
  for (size_t n = 0; n < nodes; ++n) {
    SCOPED_TRACE("node " + std::to_string(n));
    EXPECT_EQ(scanned[n], polled[n]);
    EXPECT_EQ(scan.is_on(static_cast<NodeId>(n)),
              poll.is_on(static_cast<NodeId>(n)));
    packets += polled[n].size();
  }
  if (cfg.injection_rate == 0.0) {
    EXPECT_EQ(packets, 0u);
  } else {
    EXPECT_GT(packets, 0u);
  }
}

TEST(Traffic, ArrivalScanDrawsWhatPollingDraws) {
  struct Load {
    double rate;
    int packet_length_flits;
  };
  for (const TrafficPattern pattern :
       {TrafficPattern::kUniform, TrafficPattern::kHotspot}) {
    for (const Load load : {Load{0.0, 4}, Load{0.002, 4}, Load{0.3, 4},
                            Load{1.0, 1}}) {  // 1.0: a packet every cycle
      SCOPED_TRACE(std::string(traffic_name(pattern)) + " at " +
                   std::to_string(load.rate));
      SimConfig cfg = cfg5(pattern, load.rate);
      cfg.packet_length_flits = load.packet_length_flits;
      expect_scan_matches_polling(cfg);
    }
  }
  // Bursty: ON-state rate = rate / duty must stay <= 1, so 0.25 (and
  // 0.25 with one-flit packets, a packet every ON cycle) stands in for
  // the higher rates.
  for (const Load load : {Load{0.0, 4}, Load{0.002, 4}, Load{0.25, 4},
                          Load{0.25, 1}}) {
    SCOPED_TRACE("bursty at " + std::to_string(load.rate) + ", " +
                 std::to_string(load.packet_length_flits) + "-flit packets");
    SimConfig cfg = cfg5(TrafficPattern::kUniform, load.rate);
    cfg.packet_length_flits = load.packet_length_flits;
    cfg.burst_duty = 0.25;
    expect_scan_matches_polling(cfg);
  }
}

}  // namespace
}  // namespace lain::noc
