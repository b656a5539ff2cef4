#include "noc/channel.hpp"

#include <gtest/gtest.h>

namespace lain::noc {
namespace {

TEST(Channel, LatencyOne) {
  FlitChannel ch;
  Flit f;
  f.packet = 7;
  ch.send(f);
  EXPECT_FALSE(ch.receive().has_value());  // not yet visible
  ch.tick();
  const auto got = ch.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->packet, 7);
  EXPECT_FALSE(ch.receive().has_value());
}

TEST(Channel, PreservesOrder) {
  FlitChannel ch;
  Flit a, b;
  a.packet = 1;
  b.packet = 2;
  ch.send(a);
  ch.tick();
  ch.send(b);
  EXPECT_EQ(ch.receive()->packet, 1);
  ch.tick();
  EXPECT_EQ(ch.receive()->packet, 2);
}

// The one-send-per-cycle contract is an assert since PR 6 (hot-path
// flow-control checks cost nothing in Release), so the double-send is
// only observable in builds with asserts armed.
#ifndef NDEBUG
TEST(ChannelDeathTest, OneSendPerCycleAsserted) {
  FlitChannel ch;
  ch.send(Flit{});
  EXPECT_DEATH(ch.send(Flit{}), "one item per cycle");
}

// Every consumer drains its inbound channels in the cycle after an
// admission, so the pipe slot is free whenever the next item arrives.
TEST(ChannelDeathTest, UndrainedPipeAsserted) {
  FlitChannel ch;
  ch.send(Flit{});
  ch.tick();
  ch.send(Flit{});
  EXPECT_DEATH(ch.tick(), "consumer stopped draining");
}
#endif

TEST(Channel, SendLandsAfterTick) {
  FlitChannel ch;
  ch.send(Flit{});
  ch.tick();
  ch.send(Flit{});  // staging slot free again after the tick
  EXPECT_EQ(ch.in_flight_count(), 2);
}

TEST(Channel, InFlightCount) {
  FlitChannel ch;
  EXPECT_EQ(ch.in_flight_count(), 0);
  ch.send(Flit{});
  ch.tick();
  ch.send(Flit{});
  EXPECT_EQ(ch.in_flight_count(), 2);
}

}  // namespace
}  // namespace lain::noc
