// test_sweep.cpp — SweepEngine / SweepAxes: job ordering, exception
// propagation, and the determinism contract (same SimConfig seed =>
// bit-identical SimStats regardless of thread count or job order).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "core/bench_suite.hpp"
#include "core/context.hpp"
#include "core/sweep.hpp"
#include "noc/rng.hpp"
#include "noc/sim.hpp"

namespace lain {
namespace {

TEST(SweepAxes, ExpandsCartesianProductInFixedOrder) {
  core::SweepAxes axes;
  axes.schemes = {xbar::Scheme::kSC, xbar::Scheme::kDPC};
  axes.patterns = {noc::TrafficPattern::kUniform,
                   noc::TrafficPattern::kTranspose};
  axes.injection_rates = {0.05, 0.1, 0.2};
  axes.seeds = {1, 2};
  EXPECT_EQ(axes.size(), 2u * 2u * 3u * 1u * 2u);

  const std::vector<core::SweepPoint> points = axes.expand();
  ASSERT_EQ(points.size(), axes.size());
  // Pattern is the outermost axis, seeds the innermost.
  EXPECT_EQ(points[0].pattern, noc::TrafficPattern::kUniform);
  EXPECT_EQ(points[0].scheme, xbar::Scheme::kSC);
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);
  EXPECT_EQ(points[1].injection_rate, 0.05);
  EXPECT_EQ(points[2].injection_rate, 0.1);
  EXPECT_EQ(points.back().pattern, noc::TrafficPattern::kTranspose);
  EXPECT_EQ(points.back().scheme, xbar::Scheme::kDPC);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
}

TEST(SweepAxes, TrafficDiversityAxesExpandBetweenTempAndSeed) {
  core::SweepAxes axes;
  axes.injection_rates = {0.1};
  axes.hotspot_fractions = {0.2, 0.5};
  axes.burst_duties = {0.25, 1.0};
  axes.seeds = {1, 2};
  EXPECT_EQ(axes.size(), 2u * 2u * 2u);
  const std::vector<core::SweepPoint> points = axes.expand();
  ASSERT_EQ(points.size(), 8u);
  // seed is innermost, then duty, then hotspot.
  EXPECT_EQ(points[0].hotspot_fraction, 0.2);
  EXPECT_EQ(points[0].burst_duty, 0.25);
  EXPECT_EQ(points[0].seed, 1u);
  EXPECT_EQ(points[1].seed, 2u);
  EXPECT_EQ(points[2].burst_duty, 1.0);
  EXPECT_EQ(points[4].hotspot_fraction, 0.5);
  EXPECT_EQ(points.back().burst_duty, 1.0);
  EXPECT_EQ(points.back().seed, 2u);
}

TEST(SweepAxes, ReplicatesDeriveDistinctDeterministicSeeds) {
  core::SweepAxes a, b;
  a.replicates(4, 99);
  b.replicates(4, 99);
  EXPECT_EQ(a.seeds, b.seeds);
  ASSERT_EQ(a.seeds.size(), 4u);
  for (std::size_t i = 0; i < a.seeds.size(); ++i)
    for (std::size_t j = i + 1; j < a.seeds.size(); ++j)
      EXPECT_NE(a.seeds[i], a.seeds[j]);
  // Matches the documented derivation.
  EXPECT_EQ(a.seeds[2], noc::mix_seed(99, 2));
}

TEST(SweepEngine, MapReturnsResultsInJobOrder) {
  const core::SweepEngine engine(4);
  const std::vector<int> out = engine.map<int>(
      100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepEngine, RunsEveryJobExactlyOnce) {
  const core::SweepEngine engine(3);
  std::vector<std::atomic<int>> hits(257);
  engine.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepEngine, RethrowsLowestIndexedJobException) {
  const core::SweepEngine engine(4);
  try {
    engine.run(64, [](std::size_t i) {
      if (i == 7 || i == 50)
        throw std::runtime_error("job " + std::to_string(i));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 7");
  }
}

TEST(SweepEngine, ZeroThreadsMeansHardwareConcurrency) {
  const core::SweepEngine engine(0);
  EXPECT_GE(engine.threads(), 1);
}

noc::SimConfig small_config(std::uint64_t seed) {
  noc::SimConfig cfg;
  cfg.radix_x = 3;
  cfg.radix_y = 3;
  cfg.injection_rate = 0.1;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  cfg.drain_limit_cycles = 5000;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const noc::SimStats& a, const noc::SimStats& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  // Bit-identical, not approximately equal: the accumulators must see
  // the exact same samples in the exact same order.
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  EXPECT_EQ(a.packet_latency.mean(), b.packet_latency.mean());
  EXPECT_EQ(a.packet_latency.variance(), b.packet_latency.variance());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.hops.mean(), b.hops.mean());
  EXPECT_EQ(a.latency_hist.bins(), b.latency_hist.bins());
}

// The ISSUE's determinism criterion: the same SimConfig seed produces
// bit-identical SimStats no matter how many SweepEngine threads run
// the jobs or how the job list is ordered.
TEST(SweepDeterminism, SimStatsIdenticalAcrossThreadCountsAndJobOrder) {
  const std::vector<std::uint64_t> seeds = {1, 42, 1234567};

  auto run_all = [&](int threads,
                     bool reversed) -> std::vector<noc::SimStats> {
    const core::SweepEngine engine(threads);
    std::vector<std::uint64_t> order = seeds;
    if (reversed) std::reverse(order.begin(), order.end());
    std::vector<noc::SimStats> stats = engine.map<noc::SimStats>(
        order.size(), [&](std::size_t i) {
          noc::Simulation sim(small_config(order[i]));
          return sim.run();
        });
    if (reversed) std::reverse(stats.begin(), stats.end());
    return stats;
  };

  const std::vector<noc::SimStats> serial = run_all(1, false);
  const std::vector<noc::SimStats> parallel = run_all(4, false);
  const std::vector<noc::SimStats> shuffled = run_all(4, true);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    expect_identical(serial[i], parallel[i]);
    expect_identical(serial[i], shuffled[i]);
  }
}

// End-to-end table determinism: the rendered injection-sweep report is
// byte-identical between 1 and 4 worker threads.
TEST(SweepDeterminism, InjectionSweepTableIdenticalAcrossThreadCounts) {
  core::ScenarioSpec spec;
  spec.schemes = {xbar::Scheme::kSDPC};
  spec.patterns = {noc::TrafficPattern::kUniform};
  spec.rates = {0.05, 0.1};
  core::LainContext ctx;
  const std::string t1 =
      core::injection_sweep(ctx, spec, core::SweepEngine(1)).to_text();
  const std::string t4 =
      core::injection_sweep(ctx, spec, core::SweepEngine(4)).to_text();
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t4);
  const std::string c1 =
      core::injection_sweep(ctx, spec, core::SweepEngine(1)).to_csv();
  const std::string c4 =
      core::injection_sweep(ctx, spec, core::SweepEngine(4)).to_csv();
  EXPECT_EQ(c1, c4);
}

TEST(MixSeed, DeterministicAndStreamSeparated) {
  EXPECT_EQ(noc::mix_seed(1, 0), noc::mix_seed(1, 0));
  EXPECT_NE(noc::mix_seed(1, 0), noc::mix_seed(1, 1));
  EXPECT_NE(noc::mix_seed(1, 0), noc::mix_seed(2, 0));
  // Streams of adjacent bases must not collide (the classic
  // base+stream addition bug).
  EXPECT_NE(noc::mix_seed(1, 1), noc::mix_seed(2, 0));
}

}  // namespace
}  // namespace lain
