// config.hpp — simulation configuration.

#pragma once

#include <cstdint>
#include <string>

#include "noc/routing.hpp"

namespace lain::noc {

enum class TrafficPattern {
  kUniform,
  kTranspose,
  kBitComplement,
  kBitReverse,
  kHotspot,
  kTornado,
  kNeighbor,
};

const char* traffic_name(TrafficPattern p);
TrafficPattern traffic_from_name(const std::string& name);

// Fault injection (src/noc/fault.hpp): a deterministic, seed-derived
// schedule of link/router kills applied by the kernel between steps.
// `links` kills that many inter-router channels (both directions of the
// physical link) at `at`; `repair` > 0 turns each kill into a transient
// flap that repairs after that many cycles.  `routers` kills whole
// routers (always disconnects the node, so it requires
// allow_partition).  `at` == 0 means "at the start of the measurement
// window"; `seed` == 0 derives the fault stream from the main seed.  A
// schedule that would disconnect the fabric is rejected at plan-build
// time unless allow_partition is set, in which case unreachable pairs
// are accounted instead.  The default (all zero) injects nothing, and
// the run takes the exact fault-free code paths.
struct FaultSpec {
  int links = 0;
  int routers = 0;
  Cycle at = 0;
  std::uint64_t seed = 0;
  Cycle repair = 0;
  bool allow_partition = false;
  bool enabled() const { return links > 0 || routers > 0; }
};

struct SimConfig {
  // Topology.
  TopologyKind topology = TopologyKind::kMesh;
  int radix_x = 5;
  int radix_y = 5;

  // Router microarchitecture.
  int vcs = 2;
  int vc_depth_flits = 4;

  // Idle-proportional stepping.  On (the default), the kernel picks
  // its own stepping: event-driven for sparse traffic (see
  // SimKernel::kEventSteppingMaxRate), otherwise per-cycle with the
  // cycle of a quiescent router (no buffered flits, no owned output
  // VCs, empty inbound pipes) collapsed to O(1) bookkeeping.  Off pins
  // the per-cycle reference pipeline: every router runs its full tick
  // every cycle.  Results are bit-identical either way: tests compare
  // the kernel's choice against the reference, and benchmarks measure
  // the gap.
  bool enable_idle_fastpath = true;

  // Workload.
  TrafficPattern pattern = TrafficPattern::kUniform;
  double injection_rate = 0.1;   // flits / node / cycle (long-run average)
  int packet_length_flits = 4;
  NodeId hotspot_node = 0;
  double hotspot_fraction = 0.2; // traffic share directed at the hotspot
  // On-off burstiness (two-state modulated Bernoulli): each node
  // alternates between an ON state injecting at rate/duty and an OFF
  // state injecting nothing, with geometrically distributed dwell
  // times of the given means.  duty = 1.0 disables modulation.  The
  // long-run average rate is preserved; burstiness concentrates
  // traffic and lengthens the idle runs the sleep policy feeds on.
  double burst_duty = 1.0;       // fraction of time in the ON state
  double burst_on_mean_cycles = 50.0;

  // Phases.
  Cycle warmup_cycles = 1000;
  Cycle measure_cycles = 5000;
  Cycle drain_limit_cycles = 20000;

  // Fault injection (see FaultSpec).
  FaultSpec fault;

  std::uint64_t seed = 1;

  int num_nodes() const { return radix_x * radix_y; }
  RouteContext route_context() const {
    return RouteContext{topology, radix_x, radix_y};
  }

  // Throws std::invalid_argument on inconsistency.
  void validate() const;
};

}  // namespace lain::noc
