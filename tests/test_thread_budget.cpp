// test_thread_budget.cpp — the process-wide worker-lane budget:
// lease semantics, concurrent accounting, and the headline property
// that nested parallelism (sweep jobs x sharded-simulation shards)
// never exceeds the budget.

#include "core/thread_budget.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/sweep.hpp"
#include "noc/parallel/sharded_sim.hpp"

namespace lain::core {
namespace {

TEST(ThreadBudget, GrantsUpToAvailable) {
  ThreadBudget b(4);
  EXPECT_EQ(b.total(), 4);
  EXPECT_EQ(b.available(), 4);

  ThreadBudget::Lease l1 = b.acquire(3);
  EXPECT_EQ(l1.count(), 3);
  EXPECT_EQ(b.in_use(), 3);

  ThreadBudget::Lease l2 = b.acquire(3);
  EXPECT_EQ(l2.count(), 1);  // only one lane left
  ThreadBudget::Lease l3 = b.acquire(2);
  EXPECT_EQ(l3.count(), 0);  // spent: degrade, don't overdraw
  EXPECT_EQ(b.in_use(), 4);

  l1.release();
  EXPECT_EQ(b.in_use(), 1);
  ThreadBudget::Lease l4 = b.acquire(2);
  EXPECT_EQ(l4.count(), 2);
}

TEST(ThreadBudget, MinGrantFloorsTheLease) {
  ThreadBudget b(1);
  ThreadBudget::Lease l1 = b.acquire(4, /*min_grant=*/1);
  EXPECT_EQ(l1.count(), 1);
  // The floor covers a caller that runs inline regardless; it is the
  // only way in_use can exceed total.
  ThreadBudget::Lease l2 = b.acquire(4, /*min_grant=*/1);
  EXPECT_EQ(l2.count(), 1);
  EXPECT_EQ(b.in_use(), 2);
}

TEST(ThreadBudget, LeaseMovesAndReleasesOnce) {
  ThreadBudget b(4);
  {
    ThreadBudget::Lease outer;
    {
      ThreadBudget::Lease inner = b.acquire(2);
      EXPECT_EQ(b.in_use(), 2);
      outer = std::move(inner);
      EXPECT_EQ(inner.count(), 0);  // NOLINT(bugprone-use-after-move)
    }
    // inner's destruction released nothing; outer still holds 2.
    EXPECT_EQ(b.in_use(), 2);
    EXPECT_EQ(outer.count(), 2);
  }
  EXPECT_EQ(b.in_use(), 0);
}

TEST(ThreadBudget, ConcurrentAcquireNeverOvercommits) {
  ThreadBudget b(4);
  std::atomic<bool> overcommitted{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&b, &overcommitted, t] {
      for (int i = 0; i < 200; ++i) {
        ThreadBudget::Lease lease = b.acquire(1 + (t + i) % 3);
        if (b.in_use() > b.total()) overcommitted = true;
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(overcommitted.load());
  EXPECT_EQ(b.in_use(), 0);
}

TEST(ThreadBudget, SweepEngineLeasesItsWorkers) {
  ThreadBudget b(4);
  {
    SweepEngine first(3, &b);
    EXPECT_EQ(first.threads(), 3);
    EXPECT_EQ(b.in_use(), 3);
    SweepEngine second(3, &b);
    EXPECT_EQ(second.threads(), 1);  // floored at the inline lane
    EXPECT_EQ(b.in_use(), 4);
  }
  EXPECT_EQ(b.in_use(), 0);
}

noc::SimConfig small_mesh_config(int radix) {
  noc::SimConfig cfg;
  cfg.topology = noc::TopologyKind::kMesh;
  cfg.radix_x = radix;
  cfg.radix_y = radix;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.pattern = noc::TrafficPattern::kUniform;
  cfg.injection_rate = 0.1;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 100;
  cfg.drain_limit_cycles = 2000;
  cfg.seed = 5;
  return cfg;
}

// Row-band shards leasing their extra lanes from `budget` (if any).
noc::ShardedOptions row_shards(int shards, ThreadBudget* budget = nullptr) {
  noc::ShardedOptions opt;
  opt.shards = shards;
  opt.budget = budget;
  return opt;
}

TEST(ThreadBudget, ShardedSimulationDegradesToRemainingLanes) {
  const noc::SimConfig cfg = small_mesh_config(4);
  ThreadBudget b(4);
  {
    ThreadBudget::Lease hog = b.acquire(4);
    ASSERT_EQ(hog.count(), 4);
    noc::ShardedSimulation starved(cfg, row_shards(4, &b));
    EXPECT_EQ(starved.num_shards(), 1);  // serial fallback, no workers
  }
  noc::ShardedSimulation sim(cfg, row_shards(4, &b));
  EXPECT_EQ(sim.num_shards(), 4);
  EXPECT_EQ(b.in_use(), 3);  // driver lane is the caller's, not leased
}

// The headline nesting property: sweep jobs running sharded
// simulations stay within the budget, and the budget-degraded shard
// counts do not change the simulated results.
TEST(ThreadBudget, NestedSweepAndShardsStayWithinBudget) {
  const noc::SimConfig cfg = small_mesh_config(4);

  // Reference result, serial and budget-free.
  noc::ShardedSimulation ref_sim(cfg, row_shards(1));
  const noc::SimStats ref = ref_sim.run();

  for (int budget_lanes : {4, 8}) {
    ContextOptions opt;
    opt.thread_budget = budget_lanes;
    LainContext ctx(opt);
    ThreadBudget& b = ctx.thread_budget();
    const SweepEngine engine = ctx.make_engine(4);

    std::atomic<int> max_in_use{0};
    std::atomic<bool> overcommitted{false};
    const std::vector<std::int64_t> ejected =
        engine.map<std::int64_t>(8, [&](std::size_t) {
          noc::ShardedSimulation sim(cfg, row_shards(4, &b));
          EXPECT_GE(sim.num_shards(), 1);
          EXPECT_LE(sim.num_shards(), 4);
          const int in_use = b.in_use();
          int seen = max_in_use.load();
          while (in_use > seen &&
                 !max_in_use.compare_exchange_weak(seen, in_use)) {
          }
          if (in_use > b.total()) overcommitted = true;
          return sim.run().packets_ejected;
        });

    EXPECT_FALSE(overcommitted.load())
        << "budget " << budget_lanes << " exceeded: " << max_in_use.load();
    // The engine's own lanes are in use for its whole lifetime.
    EXPECT_EQ(b.in_use(), engine.threads());
    for (std::int64_t e : ejected) EXPECT_EQ(e, ref.packets_ejected);
  }
}

}  // namespace
}  // namespace lain::core
