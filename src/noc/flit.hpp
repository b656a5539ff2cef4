// flit.hpp — flits, packets and credits.

#pragma once

#include <cstdint>

#include "noc/types.hpp"

namespace lain::noc {

enum class FlitType : std::int8_t { kHead, kBody, kTail, kHeadTail };

// Widest fields first, so a flit packs into 40 bytes: every hop copies
// it into a channel slot and a VC buffer slot.
struct Flit {
  PacketId packet = -1;
  Cycle created = 0;          // packet creation time (head carries it)
  Cycle injected = 0;         // time the flit entered the network
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  // Routers traversed; SimConfig::validate rejects a fabric whose
  // longest possible path would overflow it.
  std::int16_t hops = 0;
  std::int8_t vc = 0;         // virtual channel currently occupied
  FlitType type = FlitType::kHead;

  bool is_head() const {
    return type == FlitType::kHead || type == FlitType::kHeadTail;
  }
  bool is_tail() const {
    return type == FlitType::kTail || type == FlitType::kHeadTail;
  }
};
static_assert(sizeof(Flit) == 40, "Flit packs into 40 bytes");

struct Credit {
  int vc = 0;
};

}  // namespace lain::noc
