// sharded_sim.hpp — the simulation engine.
//
// ShardedSimulation partitions the mesh/torus into per-thread tile
// shards — row bands or 2D blocks, see noc/parallel/partition.hpp —
// and steps every shard through the same cycle under a two-phase
// barrier:
//
//   phase 1 (components)  each shard sources the traffic due at its
//                         tiles and ticks its NICs and routers with
//                         work.  Channel sends only write
//                         producer-side staging slots, so shards never
//                         race — even on links that cross a shard
//                         boundary.
//   barrier
//   phase 2 (exchange)    each shard advances the channels it
//                         consumes that may hold an item — those its
//                         components sent on, and of each boundary
//                         link the flit channel where it holds the
//                         owner, the credit channel where it holds the
//                         source — publishing this cycle's flits for
//                         the next cycle and adding its returned
//                         credits to their consumers' counters.
//   barrier
//
// The per-cycle reference (enable_idle_fastpath off) runs the same two
// phases over every node and channel of the shard, every cycle.
//
// Under event stepping (the default; SimConfig::enable_idle_fastpath)
// the calling thread first computes the skip target between steps:
// the earliest cycle any shard has work at (an active component or a
// traffic arrival), capped by run()'s next stop point.  Past the
// current cycle, the clock jumps there and no worker wakes; otherwise
// the cycle executes as above.  So an executed cycle crosses three
// barriers (start, exchange, done) and a skipped one none.  The
// calling thread reads each shard's active counts and arrival heap
// after the done barrier and seeds arrivals before the start barrier,
// while every worker is parked.  A skip only advances the clock:
// every admitted flit wakes its consumer in the shard that admitted
// it and is receivable the next cycle, so a shard with work next cycle
// is already active, and a credit is never in flight across a skip.
//
// The calling thread drives shard 0 and the phase machine; shards
// 1..S-1 run on a persistent ThreadPool that is reused across every
// step()/run() of the simulation (workers park on a spin barrier
// between cycles, so a multi-million-cycle run pays the thread spawn
// cost once).  The driver and every worker run the same per-shard step
// sequence; with one shard it runs inline and crosses no barrier,
// which is the serial Simulation (noc/sim.hpp).  Traffic uses the
// per-node RNG streams and SimStats merges exactly, so the result is
// bit-identical at any shard count and partition shape.
//
// Idle-proportional cost: an executed cycle ticks only the components
// with work, and idle routers' accounting is flushed in batches.  The
// quiescence probe that retires a component reads only its own state
// and the consumer side of its inbound flit channels, so it introduces
// no cross-shard reads and cannot perturb the determinism contract.

#pragma once

#include <memory>
#include <vector>

#include "core/thread_budget.hpp"
#include "core/thread_pool.hpp"
#include "noc/kernel.hpp"

namespace lain::noc {

struct ShardedOptions {
  // <= 0 picks auto_shards(cfg, 0); always clamped to the node count.
  int shards = 0;
  PartitionStrategy partition = PartitionStrategy::kRowBands;
  // Pin each worker thread to a core (round-robin over the hardware
  // lanes, the driver's lane excluded).  Linux only; a silent no-op
  // where unsupported.  Wall-clock only — never affects stats.
  bool pin_threads = false;
  // With a budget the simulation leases its extra worker lanes
  // (shards - 1; the driver lane belongs to the caller) for its
  // lifetime — nested under a budget-aware sweep it degrades toward
  // serial instead of oversubscribing.
  core::ThreadBudget* budget = nullptr;
};

class ShardedSimulation : public SimKernel {
 public:
  ShardedSimulation(const SimConfig& cfg, const ShardedOptions& opt);
  ~ShardedSimulation() override;

  void step() override;

  // Joins the parked workers before swapping collectors: each worker
  // times its barrier wait into the attached collector, so a detach
  // under it would race and let it write into freed counters.  The
  // next step() restarts them.
  void set_telemetry(telemetry::Collector* collector) override;

  // Shard-count policy.  requested > 0 is honoured (clamped to the
  // node count).  requested <= 0 is automatic: 1 for fabrics under 64
  // nodes (barrier overhead beats the win), otherwise the hardware
  // concurrency clamped to the row count so every shard gets at least
  // one full row band.
  static int auto_shards(const SimConfig& cfg, int requested);

 private:
  void start_workers();
  void stop_workers();
  void worker_loop(std::size_t shard_index);
  // One participant's part of an executed cycle: this shard's
  // component and exchange phases.  The calling thread and every
  // worker run it between the start and done barriers and meet at the
  // exchange barrier inside; with one shard it crosses no barrier.
  void step_participant(std::size_t shard_index);
  // Waits at `barrier`, timed as barrier wait; no-op with one shard.
  void cross(core::SpinBarrier* barrier, std::size_t shard_index);
  // Event stepping, on the calling thread between steps: the cycle the
  // shards' horizons and the skip cap let the clock jump to; now_
  // means execute this cycle.
  Cycle skip_target();
  void rethrow_any_error();

  bool pin_threads_ = false;
  core::ThreadBudget::Lease lease_;  // extra worker lanes (may be empty)

  // Worker machinery (only engaged with more than one shard).
  std::unique_ptr<core::ThreadPool> pool_;
  std::unique_ptr<core::SpinBarrier> start_barrier_;
  std::unique_ptr<core::SpinBarrier> exchange_barrier_;
  std::unique_ptr<core::SpinBarrier> done_barrier_;
  bool workers_running_ = false;
  // Control word for the coming cycle; written by the driver before
  // the start barrier, read by workers after it.
  bool stop_requested_ = false;
  // Per shard: a phase that threw poisons its shard, which then only
  // keeps the others in lockstep until the driver rethrows.
  std::vector<std::exception_ptr> errors_;
};

}  // namespace lain::noc
