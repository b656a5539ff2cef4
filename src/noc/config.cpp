#include "noc/config.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "noc/arbiter.hpp"
#include "noc/types.hpp"

namespace lain::noc {

const char* traffic_name(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniform: return "uniform";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kBitComplement: return "bitcomp";
    case TrafficPattern::kBitReverse: return "bitrev";
    case TrafficPattern::kHotspot: return "hotspot";
    case TrafficPattern::kTornado: return "tornado";
    case TrafficPattern::kNeighbor: return "neighbor";
  }
  return "?";
}

TrafficPattern traffic_from_name(const std::string& name) {
  if (name == "uniform") return TrafficPattern::kUniform;
  if (name == "transpose") return TrafficPattern::kTranspose;
  if (name == "bitcomp") return TrafficPattern::kBitComplement;
  if (name == "bitrev") return TrafficPattern::kBitReverse;
  if (name == "hotspot") return TrafficPattern::kHotspot;
  if (name == "tornado") return TrafficPattern::kTornado;
  if (name == "neighbor") return TrafficPattern::kNeighbor;
  throw std::invalid_argument("unknown traffic pattern: " + name);
}

void SimConfig::validate() const {
  // Every range check on a double is phrased so that NaN fails it.
  if (radix_x < 2 || radix_y < 2) {
    throw std::invalid_argument("mesh radix must be >= 2 in each dimension");
  }
  if (vcs < 1) throw std::invalid_argument("need >= 1 virtual channel");
  static_assert(kNumPorts * kMaxVcs <= kMaxRequesters,
                "a router's input VCs must fit one 64-bit mask");
  if (vcs > kMaxVcs) {
    throw std::invalid_argument(
        "at most 12 virtual channels: the router's 5 ports x VCs must fit "
        "its 64-bit VC masks");
  }
  if (topology == TopologyKind::kTorus && vcs < 2) {
    throw std::invalid_argument("torus dateline routing needs >= 2 VCs");
  }
  if (vc_depth_flits < 1) throw std::invalid_argument("VC depth must be >= 1");
  if (!(injection_rate >= 0.0 && injection_rate <= 1.0)) {
    throw std::invalid_argument("injection rate must be in [0,1]");
  }
  if (packet_length_flits < 1) {
    throw std::invalid_argument("packet length must be >= 1 flit");
  }
  if (hotspot_node < 0 || hotspot_node >= num_nodes()) {
    throw std::invalid_argument("hotspot node outside topology");
  }
  if (!(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0)) {
    throw std::invalid_argument("hotspot fraction must be in [0,1]");
  }
  if (warmup_cycles < 0 || measure_cycles <= 0 || drain_limit_cycles < 0) {
    throw std::invalid_argument("bad phase lengths");
  }
  if (!(burst_duty > 0.0 && burst_duty <= 1.0)) {
    throw std::invalid_argument("burst duty must be in (0,1]");
  }
  if (!(burst_on_mean_cycles >= 1.0)) {
    throw std::invalid_argument("burst ON dwell must be >= 1 cycle");
  }
  if (injection_rate / burst_duty > 1.0) {
    throw std::invalid_argument(
        "burst duty too low: ON-state rate would exceed 1 flit/cycle");
  }
  if (fault.links < 0 || fault.routers < 0) {
    throw std::invalid_argument("fault counts must be >= 0");
  }
  if (fault.at < 0 || fault.repair < 0) {
    throw std::invalid_argument("fault cycles must be >= 0");
  }
  // Flit::hops is 16 bits.  A packet crosses at most radix_x + radix_y
  // - 1 routers on its dimension-order path.  Under faults it may
  // leave that path for the escape spanning tree, and every fault
  // event (a kill, or a kill and its repair) can hand it a new tree
  // path of at most num_nodes() routers.  Counted in double: the
  // bound must not overflow for absurd inputs either.
  const double fault_events =
      fault.enabled()
          ? static_cast<double>(fault.links) * (fault.repair > 0 ? 2 : 1) +
                fault.routers
          : -1.0;
  const double max_hops =
      static_cast<double>(radix_x) + radix_y - 1 +
      (fault_events + 1) * static_cast<double>(radix_x) * radix_y;
  if (max_hops > std::numeric_limits<std::int16_t>::max()) {
    throw std::invalid_argument(
        "fabric too large for its fault schedule: a packet's hop count "
        "could overflow the flit's 16-bit counter");
  }
  if (fault.enabled()) {
    // Self-healing routing reserves the highest VC as the deadlock-free
    // escape class (spanning-tree routing around dead links).  The mesh
    // needs one VC left for XY traffic; the torus additionally needs
    // two dateline classes among the non-escape VCs.
    if (vcs < 2) {
      throw std::invalid_argument(
          "fault injection needs >= 2 VCs (one reserved as the escape VC)");
    }
    if (topology == TopologyKind::kTorus && vcs < 3) {
      throw std::invalid_argument(
          "fault injection on the torus needs >= 3 VCs (two dateline "
          "classes plus the reserved escape VC)");
    }
  }
}

}  // namespace lain::noc
