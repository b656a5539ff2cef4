#include "noc/nic.hpp"

#include <gtest/gtest.h>

#include <array>

namespace lain::noc {
namespace {

struct Harness {
  SimConfig cfg;
  FlitChannel inj;
  CreditChannel inj_cr;
  FlitChannel ej;
  CreditChannel ej_cr;
  // The ejection credits' consumer, the router's local-output counters
  // in a fabric: ticking ej_cr adds each credit the NIC echoes here.
  std::array<int, kMaxVcs> ej_credits{};
  Nic nic;

  explicit Harness(SimConfig c) : cfg(c), nic(0, c) {
    nic.connect(&inj, &inj_cr, &ej, &ej_cr);
    ej_cr.connect(ej_credits.data(), c.vc_depth_flits);
  }
  void tick_all(Cycle t) {
    nic.tick(t);
    inj.tick();
    inj_cr.tick();
    ej.tick();
    ej_cr.tick();
  }
};

SimConfig cfg4() {
  SimConfig cfg;
  cfg.packet_length_flits = 4;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  return cfg;
}

TEST(Nic, SegmentsPacketIntoFlits) {
  Harness h(cfg4());
  h.nic.source_packet(5, 0, 42);
  EXPECT_EQ(h.nic.source_queue_flits(), 4);
  std::vector<Flit> sent;
  for (Cycle t = 0; t < 10 && sent.size() < 4; ++t) {
    h.tick_all(t);
    while (auto f = h.inj.receive()) sent.push_back(*f);
  }
  ASSERT_EQ(sent.size(), 4u);
  EXPECT_EQ(sent[0].type, FlitType::kHead);
  EXPECT_EQ(sent[1].type, FlitType::kBody);
  EXPECT_EQ(sent[2].type, FlitType::kBody);
  EXPECT_EQ(sent[3].type, FlitType::kTail);
  // All flits of one packet ride the same VC.
  EXPECT_EQ(sent[0].vc, sent[3].vc);
  EXPECT_EQ(sent[0].dst, 5);
  EXPECT_EQ(sent[0].packet, 42);
}

TEST(Nic, SingleFlitPacketIsHeadTail) {
  SimConfig cfg = cfg4();
  cfg.packet_length_flits = 1;
  Harness h(cfg);
  h.nic.source_packet(3, 0, 1);
  h.tick_all(0);
  h.tick_all(1);
  const auto f = h.inj.receive();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FlitType::kHeadTail);
}

TEST(Nic, StallsWithoutCredits) {
  SimConfig cfg = cfg4();
  cfg.vcs = 1;
  cfg.vc_depth_flits = 2;
  Harness h(cfg);
  h.nic.source_packet(5, 0, 1);
  // Only 2 credits: after 2 flits the NIC must stall.  Drain the
  // injection pipe as a router would — a channel's pipe holds one
  // item, which its consumer collects the cycle after it arrives.
  for (Cycle t = 0; t < 10; ++t) {
    h.tick_all(t);
    while (h.inj.receive()) {
    }
  }
  EXPECT_EQ(h.nic.flits_injected(), 2);
  EXPECT_EQ(h.nic.source_queue_flits(), 2);
  // Returning credits unblocks it.
  h.ej_cr.send(Credit{0});  // wrong channel on purpose: no effect
  h.inj_cr.send(Credit{0});
  h.tick_all(11);
  EXPECT_EQ(h.ej_credits[0], 1);  // the wrong channel's consumer got it
  h.tick_all(12);
  EXPECT_EQ(h.nic.flits_injected(), 3);
}

TEST(Nic, EjectsAndReportsCompletion) {
  Harness h(cfg4());
  Flit tail;
  tail.type = FlitType::kTail;
  tail.packet = 9;
  tail.src = 2;
  tail.created = 5;
  tail.injected = 7;
  tail.hops = 3;
  tail.vc = 1;
  h.ej.send(tail);
  h.ej.tick();
  h.nic.tick(20);
  EXPECT_EQ(h.nic.flits_ejected(), 1);
  EXPECT_EQ(h.nic.packets_ejected(), 1);
  ASSERT_EQ(h.nic.completions().size(), 1u);
  const Nic::Ejection& e = h.nic.completions()[0];
  EXPECT_EQ(e.packet, 9);
  EXPECT_EQ(e.ejected, 20);
  EXPECT_EQ(e.hops, 3);
  // Credit echoed back, into its consumer's counter for VC 1.
  h.ej_cr.tick();
  EXPECT_EQ(h.ej_credits[0], 0);
  EXPECT_EQ(h.ej_credits[1], 1);
}

// A returned credit needs no NIC tick: the credit channel's tick adds
// it to the NIC's counter, so a NIC whose only inbound item is a credit
// is quiescent and already holds it.
TEST(Nic, ReturnedCreditLandsWithoutATick) {
  Harness h(cfg4());
  h.nic.source_packet(5, 0, 1);
  for (Cycle t = 0; t < 4; ++t) {
    h.tick_all(t);
    while (h.inj.receive()) {
    }
  }
  ASSERT_EQ(h.nic.flits_injected(), 4);
  ASSERT_TRUE(h.nic.quiescent());
  EXPECT_EQ(h.nic.credits(0), 0);  // the whole packet rode VC 0
  h.inj_cr.send(Credit{0});
  h.inj_cr.tick();
  EXPECT_TRUE(h.nic.quiescent());
  EXPECT_EQ(h.nic.credits(0), 1);
  EXPECT_EQ(h.nic.credits(1), cfg4().vc_depth_flits);
}

TEST(Nic, OneFlitPerCycle) {
  Harness h(cfg4());
  h.nic.source_packet(5, 0, 1);
  h.nic.source_packet(6, 0, 2);
  int received = 0;
  for (Cycle t = 0; t < 8; ++t) {
    h.tick_all(t);
    int this_cycle = 0;
    while (h.inj.receive()) ++this_cycle;
    EXPECT_LE(this_cycle, 1);
    received += this_cycle;
  }
  EXPECT_EQ(received, 8);
}

}  // namespace
}  // namespace lain::noc
