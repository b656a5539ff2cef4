// test_context.cpp — LainContext and the shared characterization
// cache: same-object hits under concurrency, bit-identity with the
// uncached path, the exposed hit counters, and the headline property
// that a 100-job sweep characterizes each distinct (spec, scheme)
// pair exactly once.

#include "core/context.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "noc/rng.hpp"

namespace lain::core {
namespace {

// Field-by-field bitwise equality (memcmp would trip on padding).
void expect_bit_identical(const xbar::Characterization& a,
                          const xbar::Characterization& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.delay_hl_s, b.delay_hl_s);
  EXPECT_EQ(a.delay_lh_s, b.delay_lh_s);
  EXPECT_EQ(a.active_leakage_w, b.active_leakage_w);
  EXPECT_EQ(a.idle_leakage_w, b.idle_leakage_w);
  EXPECT_EQ(a.standby_leakage_w, b.standby_leakage_w);
  EXPECT_EQ(a.dynamic_power_w, b.dynamic_power_w);
  EXPECT_EQ(a.control_power_w, b.control_power_w);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.sleep_entry_energy_j, b.sleep_entry_energy_j);
  EXPECT_EQ(a.wakeup_energy_j, b.wakeup_energy_j);
  EXPECT_EQ(a.min_idle_cycles, b.min_idle_cycles);
}

TEST(CharacterizationCache, ComputesOncePerDistinctPair) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec spec = xbar::table1_spec();

  const xbar::Characterization& a = cache.get(spec, xbar::Scheme::kDPC);
  const xbar::Characterization& b = cache.get(spec, xbar::Scheme::kDPC);
  EXPECT_EQ(&a, &b);  // same cached object, stable reference
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_EQ(cache.characterizations(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A different spec and a different scheme are distinct pairs.
  xbar::CrossbarSpec hot = spec;
  hot.temp_k = 300.0;
  cache.get(hot, xbar::Scheme::kDPC);
  cache.get(spec, xbar::Scheme::kSC);
  EXPECT_EQ(cache.characterizations(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

// The cache orders keys by their fields, and a NaN field compares
// neither less nor greater: cached, a NaN-temperature key would alias
// every spec that differs from it only in temperature.
TEST(CharacterizationCache, RejectsNanSpecBeforeCaching) {
  CharacterizationCache cache;
  xbar::CrossbarSpec nan_temp = xbar::table1_spec();
  nan_temp.temp_k = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cache.get(nan_temp, xbar::Scheme::kSC), std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);

  xbar::CrossbarSpec hot = xbar::table1_spec();
  hot.temp_k = 110.0 + 273.0;
  expect_bit_identical(xbar::characterize(hot, xbar::Scheme::kSC),
                       cache.get(hot, xbar::Scheme::kSC));
}

TEST(CharacterizationCache, BitIdenticalToUncached) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  for (xbar::Scheme s : xbar::all_schemes()) {
    expect_bit_identical(xbar::characterize(spec, s), cache.get(spec, s));
  }
}

TEST(CharacterizationCache, ConcurrentHitsReturnTheSameObject) {
  CharacterizationCache cache;
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  constexpr int kThreads = 8;
  constexpr int kGetsPerThread = 16;

  std::vector<const xbar::Characterization*> seen(
      static_cast<std::size_t>(kThreads) * kGetsPerThread, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &spec, &seen, t] {
      for (int g = 0; g < kGetsPerThread; ++g) {
        seen[static_cast<std::size_t>(t) * kGetsPerThread +
             static_cast<std::size_t>(g)] =
            &cache.get(spec, xbar::Scheme::kDFC);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (const xbar::Characterization* p : seen) EXPECT_EQ(p, seen.front());
  // However the threads interleaved, exactly one characterization ran.
  EXPECT_EQ(cache.characterizations(), 1u);
  EXPECT_EQ(cache.lookups(),
            static_cast<std::uint64_t>(kThreads) * kGetsPerThread);
  EXPECT_EQ(cache.hits(), cache.lookups() - 1);
}

// A small, fast powered run for sweep-shaped tests.
NocRunSpec tiny_run_spec(xbar::Scheme scheme, std::uint64_t seed) {
  NocRunSpec spec;
  spec.scheme = scheme;
  spec.sim = make_sim_config(2, noc::TopologyKind::kMesh, 0.1,
                             noc::TrafficPattern::kUniform, seed);
  spec.sim.warmup_cycles = 20;
  spec.sim.measure_cycles = 100;
  spec.sim.drain_limit_cycles = 2000;
  return spec;
}

// The acceptance property: a >= 100-job sweep performs exactly one
// characterization per distinct (spec, scheme) pair.
TEST(LainContext, HundredJobSweepCharacterizesEachSchemeOnce) {
  ContextOptions opt;
  opt.thread_budget = 4;
  LainContext ctx(opt);
  const SweepEngine engine = ctx.make_engine(4);
  EXPECT_EQ(engine.threads(), 4);

  const std::vector<xbar::Scheme> schemes{xbar::Scheme::kSC,
                                          xbar::Scheme::kDPC};
  constexpr std::size_t kSeedsPerScheme = 50;
  const std::size_t jobs = schemes.size() * kSeedsPerScheme;  // 100
  const std::vector<NocRunResult> results =
      engine.map<NocRunResult>(jobs, [&](std::size_t i) {
        const xbar::Scheme scheme = schemes[i / kSeedsPerScheme];
        return ctx.run_noc(tiny_run_spec(scheme, 1 + i % kSeedsPerScheme));
      });

  EXPECT_EQ(results.size(), jobs);
  EXPECT_EQ(ctx.characterizations().lookups(), jobs);
  EXPECT_EQ(ctx.characterizations().characterizations(), schemes.size());
  EXPECT_EQ(ctx.characterizations().hits(), jobs - schemes.size());
}

TEST(LainContext, RunNocBitIdenticalAcrossContextsAndShardCounts) {
  // Two fresh contexts (independent caches) and a sharded kernel under
  // a budget must all produce the same numbers.
  LainContext a;
  LainContext b;
  NocRunSpec serial = tiny_run_spec(xbar::Scheme::kSDPC, 7);
  NocRunSpec sharded = serial;
  sharded.sim_threads = 2;

  const NocRunResult ra = a.run_noc(serial);
  const NocRunResult rb = b.run_noc(sharded);
  EXPECT_EQ(ra.avg_packet_latency_cycles, rb.avg_packet_latency_cycles);
  EXPECT_EQ(ra.throughput_flits_node_cycle, rb.throughput_flits_node_cycle);
  EXPECT_EQ(ra.network_power_w, rb.network_power_w);
  EXPECT_EQ(ra.crossbar_power_w, rb.crossbar_power_w);
  EXPECT_EQ(ra.standby_fraction, rb.standby_fraction);
  EXPECT_EQ(ra.realized_saving_w, rb.realized_saving_w);
}

}  // namespace
}  // namespace lain::core
