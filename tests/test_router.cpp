#include "noc/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "noc/topology.hpp"

namespace lain::noc {
namespace {

SimConfig cfg3() {
  SimConfig cfg;
  cfg.radix_x = 3;
  cfg.radix_y = 3;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.packet_length_flits = 3;
  return cfg;
}

// Drives a network manually cycle by cycle.
int run_until_delivered(Network& net, NodeId dst, int expected_packets,
                        int max_cycles) {
  for (int t = 0; t < max_cycles; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.nic(n).tick(t);
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.router(n).tick();
    net.tick_channels();
    if (net.nic(dst).packets_ejected() >= expected_packets) return t;
  }
  return -1;
}

TEST(Router, DeliversAcrossMultipleHops) {
  Network net(cfg3());
  net.nic(0).source_packet(8, 0, 1);  // corner to corner: 4 hops
  EXPECT_GE(run_until_delivered(net, 8, 1, 100), 0);
}

TEST(Router, MultiplePacketsSameDestination) {
  Network net(cfg3());
  net.nic(0).source_packet(4, 0, 1);
  net.nic(2).source_packet(4, 0, 2);
  net.nic(6).source_packet(4, 0, 3);
  EXPECT_GE(run_until_delivered(net, 4, 3, 300), 0);
  EXPECT_EQ(net.nic(4).flits_ejected(), 9);
}

TEST(Router, CreditsReturnAfterDelivery) {
  SimConfig cfg = cfg3();
  Network net(cfg);
  net.nic(0).source_packet(1, 0, 1);
  ASSERT_GE(run_until_delivered(net, 1, 1, 100), 0);
  // Let in-flight credits settle.
  for (int t = 0; t < 10; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.router(n).tick();
    net.tick_channels();
  }
  // All router-0 east-port credits must be back to full depth.
  for (int v = 0; v < cfg.vcs; ++v) {
    EXPECT_EQ(net.router(0).credits(port(Dir::kEast), v), cfg.vc_depth_flits);
  }
  EXPECT_EQ(net.flits_in_flight(), 0);
}

// A returned credit is not inbound work: the exchange phase adds it
// straight to the router's counter.  So once a packet's tail has left
// the source router, the router stays quiescent and only ever takes
// tick_idle(), yet its east credits still climb back to full depth as
// the downstream router forwards the packet.
TEST(Router, CreditsReturnToAnIdlingRouter) {
  SimConfig cfg = cfg3();
  Network net(cfg);
  net.nic(0).source_packet(2, 0, 1);  // two hops east
  Router& src = net.router(0);
  auto east_credits = [&] {
    int sum = 0;
    for (int v = 0; v < cfg.vcs; ++v) sum += src.credits(port(Dir::kEast), v);
    return sum;
  };
  const int full = cfg.vcs * cfg.vc_depth_flits;
  bool tail_left = false;
  int low = full;
  for (int t = 0; t < 100; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.nic(n).tick(t);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      if (n == 0 && tail_left) {
        const int before = east_credits();
        ASSERT_TRUE(src.quiescent()) << "cycle " << t;
        src.tick_idle();
        EXPECT_EQ(east_credits(), before);  // the idle tick takes none
      } else {
        net.router(n).tick();
      }
    }
    net.tick_channels();
    low = std::min(low, east_credits());
    tail_left = src.activity().traversals() == cfg.packet_length_flits;
  }
  ASSERT_TRUE(tail_left);
  EXPECT_EQ(net.nic(2).packets_ejected(), 1);
  EXPECT_LT(low, full);
  EXPECT_EQ(east_credits(), full);
  EXPECT_EQ(net.flits_in_flight(), 0);
}

TEST(Router, ActivityTapSeesTraversals) {
  Network net(cfg3());
  net.nic(0).source_packet(2, 0, 1);
  run_until_delivered(net, 2, 1, 100);
  // Router 1 (middle of the X path) must have traversed 3 flits twice
  // (in and out are separate routers' counts; each router counts its
  // own ST stage).
  EXPECT_GE(net.router(1).activity().traversals(), 3);
  EXPECT_GT(net.router(1).activity().cycles(), 0);
}

// A power hook that holds the crossbar in standby for the first N
// cycles: traffic must stall and then flow.
class BlockingHook final : public PowerHook {
 public:
  explicit BlockingHook(int block_cycles) : remaining_(block_cycles) {}
  bool xbar_ready() override { return remaining_ <= 0; }
  void on_cycle(const RouterEvents& ev) override {
    if (ev.demand && remaining_ > 0) --remaining_;
    demand_cycles_ += ev.demand;
  }
  int demand_cycles() const { return demand_cycles_; }

 private:
  int remaining_;
  int demand_cycles_ = 0;
};

TEST(Router, PowerHookGatesTraversal) {
  Network blocked_net(cfg3());
  BlockingHook hook(20);
  blocked_net.router(0).set_power_hook(&hook);
  blocked_net.nic(0).source_packet(1, 0, 1);
  const int t_blocked = run_until_delivered(blocked_net, 1, 1, 200);

  Network free_net(cfg3());
  free_net.nic(0).source_packet(1, 0, 1);
  const int t_free = run_until_delivered(free_net, 1, 1, 200);

  ASSERT_GE(t_blocked, 0);
  ASSERT_GE(t_free, 0);
  // The stalled crossbar delays delivery by ~the blocking window.
  EXPECT_GE(t_blocked, t_free + 15);
  EXPECT_GT(hook.demand_cycles(), 0);
}

TEST(Router, EventCountsAreConsistent) {
  Network net(cfg3());
  net.nic(0).source_packet(8, 0, 1);
  std::int64_t sent = 0, link = 0;
  for (int t = 0; t < 100; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.nic(n).tick(t);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      net.router(n).tick();
      sent += net.router(n).last_events().flits_sent;
      link += net.router(n).last_events().link_flits;
    }
    net.tick_channels();
  }
  // 3 flits x 5 router traversals (0->1->2->5->8 plus ejection at 8).
  EXPECT_EQ(sent, 15);
  // Link flits exclude the final local ejection: 3 flits x 4 links.
  EXPECT_EQ(link, 12);
}

}  // namespace
}  // namespace lain::noc
