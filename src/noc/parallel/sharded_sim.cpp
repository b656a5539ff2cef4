#include "noc/parallel/sharded_sim.hpp"

#include <algorithm>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace lain::noc {

int ShardedSimulation::auto_shards(const SimConfig& cfg, int requested) {
  const int nodes = cfg.num_nodes();
  if (requested > 0) return std::min(requested, nodes);
  if (nodes < 64) return 1;
  return std::max(1, std::min(core::hardware_lanes(), cfg.radix_y));
}

ShardedSimulation::ShardedSimulation(const SimConfig& cfg,
                                     const ShardedOptions& opt)
    : SimKernel(cfg), pin_threads_(opt.pin_threads) {
  int shards = auto_shards(cfg, opt.shards);
  if (opt.budget && shards > 1) {
    lease_ = opt.budget->acquire(shards - 1, /*min_grant=*/0);
    shards = lease_.count() + 1;
  }
  init_partition(opt.partition, shards);
  errors_.assign(shards_.size(), nullptr);
}

ShardedSimulation::~ShardedSimulation() { stop_workers(); }

void ShardedSimulation::set_telemetry(telemetry::Collector* collector) {
  stop_workers();
  SimKernel::set_telemetry(collector);
}

void ShardedSimulation::start_workers() {
  if (workers_running_ || shards_.size() <= 1) return;
  const int participants = num_shards();  // driver + S-1 workers
  start_barrier_ = std::make_unique<core::SpinBarrier>(participants);
  exchange_barrier_ = std::make_unique<core::SpinBarrier>(participants);
  done_barrier_ = std::make_unique<core::SpinBarrier>(participants);
  pool_ = std::make_unique<core::ThreadPool>(num_shards() - 1);
  if (pin_threads_) {
    // Worker w steps shard w+1 and gets cpu w+1; lane 0 is left to
    // the (unpinned) driver.  Pin only when every worker fits on its
    // own lane: two spin-barrier workers forced to share a core would
    // serialize through scheduler quanta, far worse than no pinning.
    // Individual pin failures are ignored (the flag is advisory).
    if (pool_->size() < core::hardware_lanes()) {
      for (int w = 0; w < pool_->size(); ++w) pool_->pin_worker(w, w + 1);
    }
  }
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    pool_->post([this, s] { worker_loop(s); });
  }
  workers_running_ = true;
}

void ShardedSimulation::stop_workers() {
  if (!workers_running_) return;
  stop_requested_ = true;
  start_barrier_->arrive_and_wait();
  pool_.reset();  // joins the (now idle) workers
  workers_running_ = false;
  stop_requested_ = false;
}

namespace {

// Runs one phase of a shard unless an earlier phase of it threw; a
// throw poisons the shard (see ShardedSimulation::errors_).
template <typename Phase>
void run_guarded(std::exception_ptr& error, Phase&& phase) {
  if (error) return;
  try {
    phase();
  } catch (...) {
    error = std::current_exception();
  }
}

}  // namespace

LAIN_HOT_PATH void ShardedSimulation::cross(core::SpinBarrier* barrier,
                                            std::size_t shard_index) {
  if (shards_.size() == 1) return;
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index), barrier_ns);
  barrier->arrive_and_wait();
}

LAIN_HOT_PATH Cycle ShardedSimulation::skip_target() {
  // Every shard's horizon, not just up to the first busy one: each
  // call also seeds or extends that shard's arrival heap, which its
  // component phase reads this cycle.
  Cycle h = kNoEventCycle;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Cycle c = shard_horizon(s);
    if (c < h) h = c;
  }
  if (h <= now_) return now_;
  const Cycle cap = skip_cap_ >= 0 ? skip_cap_ : now_ + 1;
  return h < cap ? h : cap;
}

LAIN_HOT_PATH void ShardedSimulation::step_participant(
    std::size_t shard_index) {
  std::exception_ptr& error = errors_[shard_index];
  run_guarded(error, [&] {
    if (event_mode_) {
      step_shard_event_components(shard_index);
    } else {
      step_shard_components(shard_index);
    }
  });
  cross(exchange_barrier_.get(), shard_index);
  run_guarded(error, [&] {
    if (event_mode_) {
      step_shard_event_channels(shard_index);
    } else {
      step_shard_channels(shard_index);
    }
  });
}

LAIN_HOT_PATH void ShardedSimulation::worker_loop(std::size_t shard_index) {
  const int shard = static_cast<int>(shard_index);
  bool stepped = false;
  for (;;) {
    {
      // A step's done-barrier wait is timed together with the next
      // start-barrier wait.  The calling thread (shard 0) may read the
      // collector as soon as it passes the done barrier, so this write
      // waits for the next step, where the barriers shard 0 crosses
      // later publish it (or, on stop, the join does).
      LAIN_TELEMETRY_SCOPE(telemetry_, shard, barrier_ns);
      if (stepped) done_barrier_->arrive_and_wait();
      start_barrier_->arrive_and_wait();
    }
    if (stop_requested_) return;
    stepped = true;
    step_participant(shard_index);
  }
}

void ShardedSimulation::rethrow_any_error() {
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

LAIN_HOT_PATH void ShardedSimulation::step() {
  if (event_mode_) {
    // Between steps every worker is parked, so the calling thread reads
    // the shards' active counts and arrival heaps (published by the
    // done barrier) and seeds arrivals (published by the start
    // barrier).  A skip wakes no worker.
    maintain_arrival_limit();
    const Cycle target = skip_target();
    if (target > now_) {
      skipped_cycles_ += target - now_;
      now_ = target;
      return;
    }
  }
  start_workers();
  cross(start_barrier_.get(), 0);
  step_participant(0);
  cross(done_barrier_.get(), 0);
  ++now_;
  rethrow_any_error();
}

}  // namespace lain::noc
