// types.hpp — core identifiers of the NoC simulator.

#pragma once

#include <cstdint>

namespace lain::noc {

using Cycle = std::int64_t;
using NodeId = std::int32_t;    // router / tile index
using PacketId = std::int64_t;

inline constexpr NodeId kInvalidNode = -1;

// Router port directions for a 2D mesh/torus (the 5x5 crossbar's five
// ports: four cardinal neighbours plus the local PE).
enum class Dir : std::int8_t {
  kNorth = 0,
  kSouth = 1,
  kWest = 2,
  kEast = 3,
  kLocal = 4,
};

inline constexpr int kNumPorts = 5;
// VCs per port: a router allocates over one 64-bit mask of its
// kNumPorts x VCs input VCs (SimConfig::validate enforces the cap).
inline constexpr int kMaxVcs = 12;

constexpr int port(Dir d) { return static_cast<int>(d); }
constexpr Dir opposite(Dir d) {
  switch (d) {
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kWest: return Dir::kEast;
    case Dir::kEast: return Dir::kWest;
    case Dir::kLocal: return Dir::kLocal;
  }
  return Dir::kLocal;
}

// Send masks (Router::sent_links, Nic::sent_links): the links a full
// tick sent a flit or a credit on, one bit per link at the node.  Bit
// p is the link leaving the node's router on port p, bit kNumPorts + p
// the link entering it on port p; on the local port those are the
// ejection and the injection link, so a router and its NIC share one
// numbering.
using SendMask = std::uint16_t;
inline constexpr int kSendBits = 2 * kNumPorts;
constexpr SendMask out_link_bit(int p) {
  return static_cast<SendMask>(1u << p);
}
constexpr SendMask in_link_bit(int p) {
  return static_cast<SendMask>(1u << (kNumPorts + p));
}

constexpr const char* dir_name(Dir d) {
  switch (d) {
    case Dir::kNorth: return "N";
    case Dir::kSouth: return "S";
    case Dir::kWest: return "W";
    case Dir::kEast: return "E";
    case Dir::kLocal: return "PE";
  }
  return "?";
}

}  // namespace lain::noc
