#include "noc/buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace lain::noc {
namespace {

Flit make_flit(FlitType t, PacketId id = 1) {
  Flit f;
  f.type = t;
  f.packet = id;
  return f;
}

// The flit block and VC buffers a router would own for one input port
// of `vcs` VCs, each `depth` flits deep.
struct PortStorage {
  PortStorage(int vcs, int depth)
      : slots(static_cast<std::size_t>(vcs * depth)) {
    for (int v = 0; v < vcs; ++v) {
      buffers.emplace_back(&slots[v * depth], depth);
    }
  }
  std::vector<Flit> slots;
  std::vector<VcBuffer> buffers;
};

TEST(VcBuffer, FifoOrder) {
  PortStorage storage(1, 4);
  VcBuffer& b = storage.buffers[0];
  EXPECT_TRUE(b.empty());
  b.push(make_flit(FlitType::kHead, 1));
  b.push(make_flit(FlitType::kTail, 2));
  EXPECT_EQ(b.size(), 2);
  EXPECT_EQ(b.front().packet, 1);
  EXPECT_EQ(b.pop().packet, 1);
  EXPECT_EQ(b.pop().packet, 2);
  EXPECT_TRUE(b.empty());
}

// Overflow/underflow are asserts since PR 6 (internal invariants, not
// runtime conditions), observable only in builds with asserts armed.
#ifndef NDEBUG
TEST(VcBufferDeathTest, OverflowAsserted) {
  PortStorage storage(1, 2);
  VcBuffer& b = storage.buffers[0];
  b.push(make_flit(FlitType::kHead));
  b.push(make_flit(FlitType::kBody));
  EXPECT_TRUE(b.full());
  EXPECT_DEATH(b.push(make_flit(FlitType::kTail)), "overflow");
}

TEST(VcBufferDeathTest, EmptyAccessAsserted) {
  PortStorage storage(1, 2);
  VcBuffer& b = storage.buffers[0];
  EXPECT_DEATH(b.front(), "empty VC buffer");
  EXPECT_DEATH(b.pop(), "empty VC buffer");
}
#endif

TEST(VcBuffer, BadCapacityThrows) {
  Flit slot;
  EXPECT_THROW(VcBuffer(&slot, 0), std::invalid_argument);
}

TEST(InputPort, OccupancyAcrossVcs) {
  PortStorage storage(3, 4);
  InputPort port(storage.buffers.data(), 3);
  EXPECT_EQ(port.num_vcs(), 3);
  port.vc(0).push(make_flit(FlitType::kHead));
  port.vc(2).push(make_flit(FlitType::kHead));
  port.vc(2).push(make_flit(FlitType::kTail));
  EXPECT_EQ(port.total_occupancy(), 3);
}

TEST(InputPort, StateMachineFields) {
  PortStorage storage(1, 4);
  InputPort port(storage.buffers.data(), 1);
  EXPECT_EQ(port.vc(0).state, VcState::kIdle);
  port.vc(0).state = VcState::kActive;
  port.vc(0).out_port = 3;
  port.vc(0).out_vc = 1;
  EXPECT_EQ(port.vc(0).out_port, 3);
}

TEST(FlitTypes, HeadTailPredicates) {
  EXPECT_TRUE(make_flit(FlitType::kHead).is_head());
  EXPECT_FALSE(make_flit(FlitType::kHead).is_tail());
  EXPECT_TRUE(make_flit(FlitType::kHeadTail).is_head());
  EXPECT_TRUE(make_flit(FlitType::kHeadTail).is_tail());
  EXPECT_FALSE(make_flit(FlitType::kBody).is_head());
  EXPECT_TRUE(make_flit(FlitType::kTail).is_tail());
}

}  // namespace
}  // namespace lain::noc
