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
  horizon_barrier_ = std::make_unique<core::SpinBarrier>(participants);
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

LAIN_HOT_PATH void ShardedSimulation::run_phase(std::size_t shard_index,
                                                bool components) {
  if (errors_[shard_index]) return;  // poisoned shard: keep in lockstep only
  try {
    if (components) {
      if (event_mode_) {
        step_shard_event_components(shard_index);
      } else {
        step_shard_components(shard_index);
      }
    } else {
      if (event_mode_) {
        step_shard_event_channels(shard_index);
      } else {
        step_shard_channels(shard_index);
      }
    }
  } catch (...) {
    errors_[shard_index] = std::current_exception();
  }
}

LAIN_HOT_PATH void ShardedSimulation::run_horizon(std::size_t shard_index) {
  if (errors_[shard_index]) {
    // Poisoned shard: propose nothing so it can't stall the others,
    // but stay in lockstep through every barrier.
    shards_[shard_index].horizon = kNoEventCycle;
    return;
  }
  try {
    shards_[shard_index].horizon = shard_horizon(shard_index);
  } catch (...) {
    errors_[shard_index] = std::current_exception();
    shards_[shard_index].horizon = kNoEventCycle;
  }
}

LAIN_HOT_PATH void ShardedSimulation::run_skip(std::size_t shard_index,
                                               Cycle d) {
  if (errors_[shard_index]) return;
  try {
    skip_shard_channels(shard_index, d);
  } catch (...) {
    errors_[shard_index] = std::current_exception();
  }
}

LAIN_HOT_PATH Cycle ShardedSimulation::global_skip_target() const {
  // Every participant computes this from barrier-synchronized inputs
  // (per-shard horizons, now_, skip_cap_), so all take the same
  // branch.  target == now_ means execute this cycle.
  Cycle h = kNoEventCycle;
  for (const Shard& sh : shards_) {
    if (sh.horizon < h) h = sh.horizon;
  }
  if (h <= now_) return now_;
  const Cycle cap = skip_cap_ >= 0 ? skip_cap_ : now_ + 1;
  return h < cap ? h : cap;
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
    if (event_mode_) {
      run_horizon(shard_index);
      {
        LAIN_TELEMETRY_SCOPE(telemetry_, shard, barrier_ns);
        horizon_barrier_->arrive_and_wait();
      }
      const Cycle target = global_skip_target();
      if (target <= now_) {
        run_phase(shard_index, /*components=*/true);
        {
          LAIN_TELEMETRY_SCOPE(telemetry_, shard, barrier_ns);
          exchange_barrier_->arrive_and_wait();
        }
        run_phase(shard_index, /*components=*/false);
      } else {
        run_skip(shard_index, target - now_);
      }
      continue;
    }
    run_phase(shard_index, /*components=*/true);
    {
      LAIN_TELEMETRY_SCOPE(telemetry_, shard, barrier_ns);
      exchange_barrier_->arrive_and_wait();
    }
    run_phase(shard_index, /*components=*/false);
  }
}

void ShardedSimulation::rethrow_any_error() {
  for (const std::exception_ptr& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

LAIN_HOT_PATH void ShardedSimulation::step() {
  const bool event = use_event_mode();
  if (shards_.size() == 1) {
    if (event) {
      step_event_single();
      return;
    }
    step_shard_components(0);
    step_shard_channels(0);
    ++now_;
    return;
  }

  if (event) maintain_arrival_limit();
  start_workers();
  {
    LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
    start_barrier_->arrive_and_wait();
  }
  if (event) {
    run_horizon(0);
    {
      LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
      horizon_barrier_->arrive_and_wait();
    }
    const Cycle target = global_skip_target();
    if (target <= now_) {
      run_phase(0, /*components=*/true);
      {
        LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
        exchange_barrier_->arrive_and_wait();
      }
      run_phase(0, /*components=*/false);
      {
        LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
        done_barrier_->arrive_and_wait();
      }
      ++now_;
    } else {
      run_skip(0, target - now_);
      {
        LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
        done_barrier_->arrive_and_wait();
      }
      skipped_cycles_ += target - now_;
      now_ = target;
    }
    rethrow_any_error();
    return;
  }
  run_phase(0, /*components=*/true);
  {
    LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
    exchange_barrier_->arrive_and_wait();
  }
  run_phase(0, /*components=*/false);
  {
    LAIN_TELEMETRY_SCOPE(telemetry_, 0, barrier_ns);
    done_barrier_->arrive_and_wait();
  }

  ++now_;
  rethrow_any_error();
}

}  // namespace lain::noc
