// context.hpp — the session object every experiment runs through.
//
// A LainContext owns the two pieces of state the experiments of one
// session share:
//
//   * a thread-safe characterization cache keyed on (CrossbarSpec,
//     Scheme), so a 1000-job sweep characterizes each scheme once
//     instead of 1000 times, and
//   * a ThreadBudget that SweepEngine and ShardedSimulation draw
//     worker leases from, so nested parallelism (`--threads 8
//     --sim-threads 4`) cooperates instead of oversubscribing.
//
// Callers create a scoped context (lain_bench per invocation, lain_serve
// per daemon) and pass it down.  There is no process-wide context:
// code that takes none (make_table1(spec)) characterizes uncached.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "core/thread_budget.hpp"
#include "xbar/characterize.hpp"

namespace lain::noc {
struct ShardedOptions;
}  // namespace lain::noc

namespace lain::core {

// The session's (spec, scheme) -> Characterization cache.  Lookups
// take a shared lock; a miss inserts an entry under the exclusive
// lock and characterizes outside it under a per-entry once-flag, so
//
//   * concurrent misses on the SAME key characterize exactly once
//     (late arrivals block until the value is ready),
//   * concurrent misses on DISTINCT keys characterize in parallel,
//   * returned references are stable for the cache's lifetime.
class CharacterizationCache {
 public:
  // Throws std::invalid_argument, caching nothing, when the spec fails
  // CrossbarSpec::validate.
  const xbar::Characterization& get(const xbar::CrossbarSpec& spec,
                                    xbar::Scheme scheme);

  // Counters for tests and cache-effectiveness reporting.
  std::uint64_t lookups() const {
    return lookups_.load(std::memory_order_relaxed);
  }
  // Number of actual xbar::characterize calls: exactly one per
  // distinct (spec, scheme) pair ever requested.
  std::uint64_t characterizations() const {
    return characterizations_.load(std::memory_order_relaxed);
  }
  std::uint64_t hits() const { return lookups() - characterizations(); }
  std::size_t size() const;

 private:
  struct Entry {
    std::once_flag once;
    xbar::Characterization value;
  };
  struct KeyLess {
    bool operator()(const std::pair<xbar::CrossbarSpec, xbar::Scheme>& a,
                    const std::pair<xbar::CrossbarSpec, xbar::Scheme>& b)
        const;
  };

  mutable std::shared_mutex mu_;
  std::map<std::pair<xbar::CrossbarSpec, xbar::Scheme>,
           std::unique_ptr<Entry>, KeyLess>
      entries_;
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> characterizations_{0};
};

struct ContextOptions {
  // Worker-lane budget shared by sweeps and sharded simulations;
  // <= 0 means hardware_concurrency (at least 1).
  int thread_budget = 0;
};

class LainContext {
 public:
  explicit LainContext(const ContextOptions& opt = {});

  LainContext(const LainContext&) = delete;
  LainContext& operator=(const LainContext&) = delete;

  CharacterizationCache& characterizations() { return cache_; }
  ThreadBudget& thread_budget() { return budget_; }

  // Cached characterization (see CharacterizationCache).
  const xbar::Characterization& characterization(
      const xbar::CrossbarSpec& spec, xbar::Scheme scheme) {
    return cache_.get(spec, scheme);
  }

  // A sweep engine whose worker count draws from this context's
  // thread budget (threads <= 0 asks for hardware_concurrency).
  SweepEngine make_engine(int threads = 1) {
    return SweepEngine(threads, &budget_);
  }

  // One powered NoC run: the characterization comes from the cache
  // and a sharded kernel's extra worker lanes come from the budget.
  NocRunResult run_noc(const NocRunSpec& spec);

  // Merged idle-run histogram of every router crossbar (E9), on the
  // budgeted kernel `run` asks for.  Bit-identical for any thread
  // count / partition; `run.telemetry` optionally streams the
  // (unpowered) run's metrics.
  noc::Histogram idle_histogram(const noc::SimConfig& cfg,
                                const RunOptions& run = {});

 private:
  CharacterizationCache cache_;
  ThreadBudget budget_;
};

// Applies a run's engine options, the one place they reach the
// simulation: the fault schedule goes into `cfg`, and
// the returned ShardedOptions carry the shard count, partition and
// pinning, leasing extra worker lanes from `budget` when given.
noc::ShardedOptions apply_run_options(const RunOptions& run,
                                      noc::SimConfig& cfg,
                                      ThreadBudget* budget = nullptr);

}  // namespace lain::core
