#include "noc/stats.hpp"

#include <gtest/gtest.h>

namespace lain::noc {
namespace {

TEST(Accumulator, Moments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 6.0}) a.add(x);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  EXPECT_NEAR(a.variance(), 8.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator a;
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
}

TEST(Histogram, MeanAndPercentiles) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10);
  for (int i = 0; i < 10; ++i) h.add(100);
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.mean(), 19.0);
  EXPECT_EQ(h.percentile(0.5), 10);
  EXPECT_EQ(h.percentile(0.95), 100);
  EXPECT_EQ(h.percentile(0.89), 10);
}

// Nearest rank: the value at rank ceil(q * n), so a q * n that is not a
// whole number rounds up, never down.
TEST(Histogram, PercentileIsNearestRank) {
  Histogram three;
  for (int v : {1, 2, 3}) three.add(v);
  EXPECT_EQ(three.percentile(0.5), 2);
  EXPECT_EQ(three.percentile(0.0), 1);
  EXPECT_EQ(three.percentile(1.0), 3);
  Histogram seven;
  for (int v = 1; v <= 7; ++v) seven.add(v);
  EXPECT_EQ(seven.percentile(0.95), 7);
  EXPECT_EQ(seven.percentile(0.5), 4);
  // A whole q * n whose double product rounds up (0.07 * 100 is
  // 7.000000000000001) still names rank q * n.
  Histogram hundred;
  for (int v = 1; v <= 100; ++v) hundred.add(v);
  EXPECT_EQ(hundred.percentile(0.07), 7);
}

TEST(Histogram, FractionAtLeast) {
  Histogram h;
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(10);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(3), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(1), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(11), 0.0);
}

TEST(Histogram, EmptySafe) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_DOUBLE_EQ(h.fraction_at_least(1), 0.0);
}

TEST(Accumulator, MergeIsExactForIntegerSamples) {
  // Shard merging relies on integer-valued samples making the sums
  // exact, so a split-and-merge reproduces serial accumulation
  // bit-for-bit — in any merge order.
  Accumulator serial, left, right, empty;
  for (int i = 0; i < 1000; ++i) {
    const double x = static_cast<double>((i * 37) % 4001);
    serial.add(x);
    (i % 3 == 0 ? left : right).add(x);
  }
  Accumulator merged = left;
  merged.merge(right);
  merged.merge(empty);
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.mean(), serial.mean());
  EXPECT_EQ(merged.variance(), serial.variance());
  EXPECT_EQ(merged.min(), serial.min());
  EXPECT_EQ(merged.max(), serial.max());

  Accumulator reversed = empty;
  reversed.merge(right);
  reversed.merge(left);
  EXPECT_EQ(reversed.mean(), serial.mean());
}

TEST(Histogram, MergeAddsBinsAndCounts) {
  Histogram a, b;
  a.add(1);
  a.add(1);
  a.add(5);
  b.add(1);
  b.add(9);
  a.merge(b);
  EXPECT_EQ(a.count(), 5);
  EXPECT_EQ(a.bins().at(1), 3);
  EXPECT_EQ(a.bins().at(5), 1);
  EXPECT_EQ(a.bins().at(9), 1);
}

TEST(SimStats, MergeFoldsCountersAndLeavesRunFields) {
  SimStats a, b;
  a.packets_injected = 10;
  a.flits_injected = 40;
  a.packet_latency.add(12.0);
  b.packets_injected = 5;
  b.packets_ejected = 3;
  b.flits_ejected = 12;
  b.packet_latency.add(20.0);
  a.num_nodes = 64;
  a.measured_cycles = 1000;
  a.merge(b);
  EXPECT_EQ(a.packets_injected, 15);
  EXPECT_EQ(a.packets_ejected, 3);
  EXPECT_EQ(a.flits_injected, 40);
  EXPECT_EQ(a.flits_ejected, 12);
  EXPECT_EQ(a.packet_latency.count(), 2);
  EXPECT_DOUBLE_EQ(a.packet_latency.mean(), 16.0);
  // Fabric-wide fields are the kernel's to set, not merge's.
  EXPECT_EQ(a.num_nodes, 64);
  EXPECT_EQ(a.measured_cycles, 1000);
}

TEST(SimStats, Throughput) {
  SimStats st;
  st.flits_ejected = 1000;
  st.measured_cycles = 500;
  st.num_nodes = 10;
  EXPECT_DOUBLE_EQ(st.throughput_flits_per_node_cycle(), 0.2);
  st.measured_cycles = 0;
  EXPECT_DOUBLE_EQ(st.throughput_flits_per_node_cycle(), 0.0);
}

}  // namespace
}  // namespace lain::noc
