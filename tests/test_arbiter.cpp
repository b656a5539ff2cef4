#include "noc/arbiter.hpp"

#include <memory>
#include <ostream>

#include <gtest/gtest.h>

namespace lain::noc {
namespace {

using Req = std::vector<std::uint8_t>;

TEST(RoundRobin, RotatesPriority) {
  RoundRobinArbiter a(3);
  const Req all{1, 1, 1};
  EXPECT_EQ(a.arbitrate(all), 0);
  EXPECT_EQ(a.arbitrate(all), 1);
  EXPECT_EQ(a.arbitrate(all), 2);
  EXPECT_EQ(a.arbitrate(all), 0);
}

TEST(RoundRobin, SkipsIdleRequesters) {
  RoundRobinArbiter a(4);
  const Req req{0, 0, 1, 0};
  EXPECT_EQ(a.arbitrate(req), 2);
  EXPECT_EQ(a.arbitrate(req), 2);
}

TEST(RoundRobin, NoRequests) {
  RoundRobinArbiter a(4);
  EXPECT_EQ(a.arbitrate(Req{0, 0, 0, 0}), -1);
}

TEST(Matrix, LeastRecentlyServed) {
  MatrixArbiter a(3);
  const Req all{1, 1, 1};
  const int first = a.arbitrate(all);
  const int second = a.arbitrate(all);
  const int third = a.arbitrate(all);
  // All three served once before anyone repeats.
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
  // After serving everyone, the first becomes highest priority again.
  EXPECT_EQ(a.arbitrate(all), first);
}

TEST(Matrix, SingleRequesterAlwaysWins) {
  MatrixArbiter a(4);
  const Req req{0, 1, 0, 0};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.arbitrate(req), 1);
}

TEST(Arbiters, SizeMismatchThrows) {
  // The checked std::vector adapter validates; the mask entry point is
  // the unchecked hot path.
  RoundRobinArbiter rr(3);
  MatrixArbiter mx(3);
  EXPECT_THROW(rr.arbitrate(Req{1}), std::invalid_argument);
  EXPECT_THROW(mx.arbitrate(Req{1}), std::invalid_argument);
  EXPECT_THROW(RoundRobinArbiter(0), std::invalid_argument);
  EXPECT_THROW(MatrixArbiter(0), std::invalid_argument);
}

TEST(Arbiters, MaskEntryPointMatchesVectorOverload) {
  // The hot path takes a request mask (bit i = input i); it must
  // behave exactly like the checked byte-vector adapter.
  RoundRobinArbiter a(3);
  RoundRobinArbiter b(3);
  Req buf{1, 0, 1};
  Mask mask = 0b101;
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(a.arbitrate(mask), b.arbitrate(buf));
    buf[static_cast<size_t>(i % 3)] ^= 1;  // vary the pattern
    mask ^= mask_bit(i % 3);
  }
}

// Property: under persistent requests from every input, both arbiter
// types are starvation-free — each input is granted at least once per
// N consecutive arbitrations, and grants are exactly balanced over
// k*N rounds.
struct ArbCase {
  const char* kind;
  int inputs;
};

// Names each case by its fields ("rr_5").  Without it GoogleTest
// prints the raw bytes, including the address of `kind`, so the CTest
// names changed with every build.
void PrintTo(const ArbCase& c, std::ostream* os) {
  *os << c.kind << '_' << c.inputs;
}

class StarvationFreedom : public ::testing::TestWithParam<ArbCase> {};

TEST_P(StarvationFreedom, PersistentRequestersAllServed) {
  const ArbCase c = GetParam();
  std::unique_ptr<Arbiter> arb;
  if (std::string(c.kind) == "rr") {
    arb = std::make_unique<RoundRobinArbiter>(c.inputs);
  } else {
    arb = std::make_unique<MatrixArbiter>(c.inputs);
  }
  const Mask all = low_mask(c.inputs);
  std::vector<int> grants(static_cast<size_t>(c.inputs), 0);
  const int rounds = 20 * c.inputs;
  for (int i = 0; i < rounds; ++i) {
    const int g = arb->arbitrate(all);
    ASSERT_GE(g, 0);
    ++grants[static_cast<size_t>(g)];
  }
  for (int i = 0; i < c.inputs; ++i) {
    EXPECT_EQ(grants[static_cast<size_t>(i)], 20) << c.kind << " input " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArbiters, StarvationFreedom,
    ::testing::Values(ArbCase{"rr", 2}, ArbCase{"rr", 5}, ArbCase{"rr", 9},
                      ArbCase{"mx", 2}, ArbCase{"mx", 5}, ArbCase{"mx", 9}));

}  // namespace
}  // namespace lain::noc
