#include "noc/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace lain::noc {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformityRough) {
  Rng r(11);
  int buckets[10] = {0};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[static_cast<int>(r.next_double() * 10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);  // within 10% of expectation
  }
}

TEST(Rng, BernoulliRate) {
  Rng r(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  Rng r2(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r2.bernoulli(0.0));
  }
}

TEST(Rng, NextBelowBound) {
  Rng r(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(25), 25u);
  }
}

// next_double() < p holds exactly when (next_u64() >> 11) < ceil(p *
// 2^53): the threshold is exact at the boundaries, and the integer
// draw returns what bernoulli(p) returns on a twin stream.
TEST(Rng, ThresholdDrawEqualsBernoulli) {
  const double ulp = std::ldexp(1.0, -53);  // next_double()'s step
  EXPECT_EQ(BernoulliThreshold(0.0).m, 0u);
  EXPECT_EQ(BernoulliThreshold(-0.5).m, 0u);
  EXPECT_EQ(BernoulliThreshold(std::nan("")).m, 0u);
  EXPECT_EQ(BernoulliThreshold(ulp).m, 1u);
  EXPECT_EQ(BernoulliThreshold(3 * ulp).m, 3u);
  EXPECT_EQ(BernoulliThreshold(std::nextafter(3 * ulp, 1.0)).m, 4u);
  EXPECT_EQ(BernoulliThreshold(0.5).m, std::uint64_t{1} << 52);
  EXPECT_EQ(BernoulliThreshold(1.0).m, std::uint64_t{1} << 53);
  EXPECT_EQ(BernoulliThreshold(4.0).m, std::uint64_t{1} << 53);
  for (const double p : {0.0, ulp, 3 * ulp, std::nextafter(3 * ulp, 1.0),
                         0.0005, 0.5, 1.0}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    const BernoulliThreshold t(p);
    Rng a(23), b(23);
    int mismatches = 0;
    int hits = 0;
    for (int i = 0; i < 1000000; ++i) {
      const bool x = a.bernoulli(t);
      mismatches += x != b.bernoulli(p);
      hits += x;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(a.next_u64(), b.next_u64());
    if (p == 1.0) {
      EXPECT_EQ(hits, 1000000);
    }
    if (p == 0.0) {
      EXPECT_EQ(hits, 0);
    }
  }
}

}  // namespace
}  // namespace lain::noc
