// test_repeated_add.cpp — repeated_add against the plain loop it
// replaces, bit for bit, on seeded random cases: zero starts, runs
// that cross many binades, forced rounding ties, increments below half
// an ulp, and the values the helper must single-step (subnormal,
// negative, non-finite).

#include "power/repeated_add.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "noc/rng.hpp"

namespace lain::power {
namespace {

double loop_add(double acc, double k, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) acc += k;
  return acc;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Compares one case; returns false (with a message) on a mismatch.
bool same_as_loop(double acc, double k, std::int64_t n) {
  const double want = loop_add(acc, k, n);
  const double got = repeated_add(acc, k, n);
  EXPECT_EQ(bits(got), bits(want))
      << std::hexfloat << "acc=" << acc << " k=" << k << " n=" << n
      << ": got " << got << ", loop " << want;
  return bits(got) == bits(want);
}

class Cases {
 public:
  explicit Cases(std::uint64_t seed) : rng_(seed) {}
  double unit() { return rng_.next_double(); }
  std::int64_t count(std::int64_t max) {
    return static_cast<std::int64_t>(
        rng_.next_below(static_cast<std::uint64_t>(max)) + 1);
  }
  // A positive normal double with a random full mantissa, 2^lo..2^hi.
  double magnitude(int lo, int hi) {
    const int e = lo + static_cast<int>(rng_.next_below(
                           static_cast<std::uint64_t>(hi - lo + 1)));
    return std::ldexp(1.0 + unit(), e);
  }

 private:
  noc::Rng rng_;
};

TEST(RepeatedAdd, ZeroStartMatchesLoop) {
  Cases c(0x5EED0001);
  int mismatches = 0;
  for (int i = 0; i < 4000; ++i) {
    const double k = c.magnitude(-60, 10);
    mismatches += same_as_loop(0.0, k, c.count(3000)) ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RepeatedAdd, BinadeCrossingsMatchLoop) {
  // k a small fraction of acc, so a run crosses several binades; the
  // leakage constants of a router-cycle sit in this regime.
  Cases c(0x5EED0002);
  int mismatches = 0;
  for (int i = 0; i < 6000; ++i) {
    const double acc = c.magnitude(-50, 20);
    const double k = acc * std::ldexp(c.unit() + 0.01, -c.count(12) + 1);
    mismatches += same_as_loop(acc, k, c.count(4000)) ? 0 : 1;
  }
  // A few long runs, as a sparse fabric's idle spans are.
  for (int i = 0; i < 40; ++i) {
    const double k = c.magnitude(-45, -35);
    mismatches += same_as_loop(k * c.count(100), k, 200000) ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RepeatedAdd, ForcedTiesMatchLoop) {
  // k = (w + 1/2) ulps of acc's binade: every step in that binade is a
  // rounding tie, which round-to-even settles by acc's parity.
  Cases c(0x5EED0003);
  int mismatches = 0;
  for (int i = 0; i < 4000; ++i) {
    const double acc = c.magnitude(-30, 30);
    int e = 0;
    std::frexp(acc, &e);
    const double ulp = std::ldexp(1.0, e - 53);
    const double w = static_cast<double>(c.count(1 << 20) - 1);
    const double k = (w + 0.5) * ulp;
    ASSERT_EQ(k / ulp - std::floor(k / ulp), 0.5);
    mismatches += same_as_loop(acc, k, c.count(2000)) ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RepeatedAdd, IncrementsBelowHalfAnUlpMatchLoop) {
  // acc + k rounds back to acc: the loop never moves; nor may the
  // helper, however long the run.  Just above half an ulp it moves by
  // one ulp per step.
  Cases c(0x5EED0004);
  int mismatches = 0;
  for (int i = 0; i < 4000; ++i) {
    const double acc = c.magnitude(-40, 40);
    int e = 0;
    std::frexp(acc, &e);
    const double ulp = std::ldexp(1.0, e - 53);
    const double below = ulp * 0.5 * c.unit();
    const double above = ulp * (0.5 + 0.5 * c.unit() + 0x1p-20);
    mismatches += same_as_loop(acc, below, c.count(5000)) ? 0 : 1;
    mismatches += same_as_loop(acc, above, c.count(5000)) ? 0 : 1;
  }
  EXPECT_EQ(repeated_add(1.0, 0x1p-60, std::int64_t{1} << 40), 1.0);
  EXPECT_EQ(mismatches, 0);
}

TEST(RepeatedAdd, WholeExponentRangeMatchesLoop) {
  // acc anywhere from DBL_MIN to just below 2^1023, so both the
  // power-of-two fast path and the subnormal-ulp fallback (acc below
  // 2^-969) run, with k from subnormal to just below acc.  The second
  // loop crowds the bottom of the range, where the two paths meet.
  Cases c(0x5EED0005);
  int mismatches = 0;
  for (int i = 0; i < 3000; ++i) {
    const double acc = c.magnitude(-1022, 1022);
    const double k = acc * std::ldexp(1.0 + c.unit(), -c.count(2100));
    mismatches += same_as_loop(acc, k, c.count(10000)) ? 0 : 1;
  }
  for (int i = 0; i < 1000; ++i) {
    const double acc = c.magnitude(-1022, -950);
    const double k = acc * std::ldexp(1.0 + c.unit(), -c.count(120));
    mismatches += same_as_loop(acc, k, c.count(10000)) ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RepeatedAdd, SingleStepCasesMatchLoop) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double acc : {0.0, -0.0, DBL_MIN / 4, -1.5, 1.0, 0x1.8p1023, inf}) {
    for (double k : {0.0, DBL_MIN / 8, 0.75, -0.25, 3.0, 1e300, inf}) {
      for (std::int64_t n : {0, 1, 2, 7, 1000}) {
        same_as_loop(acc, k, n);
      }
    }
  }
  // NaN never equals itself; compare the class, not the bits.
  EXPECT_TRUE(std::isnan(repeated_add(1.0, nan, 5)));
  EXPECT_TRUE(std::isnan(repeated_add(nan, 1.0, 5)));
}

}  // namespace
}  // namespace lain::power
