// kernel.hpp — the shared simulation phase driver.
//
// SimKernel owns everything every NoC engine needs but none should
// duplicate: the fabric (Network + TrafficGenerator), the partition
// plan and per-shard measurement state, the warmup / measurement /
// drain phase machine and per-node packet numbering.
// ShardedSimulation implements step() (the serial Simulation is its
// one-shard case) and expresses a cycle through the same two helpers
// for every shard:
//
//   step_shard_event_components()  traffic arrivals + ticks of the
//                                  shard's components with work +
//                                  completion collection,
//   step_shard_event_channels()    the exchange phase: advance the
//                                  channels sent on and the shard's
//                                  boundary channels, making this
//                                  cycle's sends visible next cycle.
//
// With cfg.enable_idle_fastpath off it steps the per-cycle reference
// pipeline instead (step_shard_components / step_shard_channels: every
// node and link, every cycle), which the identity tests compare against.
//
// Because component ticks only read flits and credits sent in earlier
// cycles (every link takes one cycle; the exchange phase puts a flit
// in its link's pipe and adds a credit to its consumer's counter) and
// only write staging slots, every shard's component phase commutes
// with every other's; the barrier between the two phases is the only
// ordering the fabric needs.  Together with per-node RNG streams and
// exactly-mergeable SimStats, that is what makes the sharded engine
// bit-identical to the serial one — at any shard count and for any
// partition shape.

#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "noc/fault.hpp"
#include "noc/parallel/partition.hpp"
#include "noc/topology.hpp"
#include "noc/trace.hpp"
#include "noc/traffic.hpp"

namespace lain::telemetry {
class Collector;
}  // namespace lain::telemetry

namespace lain::noc {

// One shard's runtime state: its private measurement slice, merged
// exactly at the end of the run.  The static side — tile set and
// exchange-phase links and channels — lives in the kernel's
// PartitionPlan.  Cache-line aligned: each shard's phases write its
// slot from their own thread, so neighbouring slots never share a
// line, and the serial kernel's one slot keeps a fixed line layout.
// (Unaligned, a 760-byte slot ran perfbench's mesh_sparse ~5% slower
// than a 768-byte one on a 4-vCPU Xeon host.)
struct alignas(64) Shard {
  SimStats stats;
  // The current metrics window's slice of the same events (only
  // maintained when a metrics window is configured).  Merged and
  // reset at each window boundary; the end-of-run `stats` above is
  // untouched by windowing.
  SimStats window_stats;
  // Packets created in the window minus packets ejected here.  May go
  // negative for one shard (ejection side); the sum over shards is
  // the fabric-wide in-flight tracked count.
  std::int64_t tracked_pending = 0;
  // Router cycles this shard accounted as deferred idle spans.  An
  // observability counter, deliberately NOT part of SimStats: the
  // per-cycle reference must compare bit-identical.
  std::int64_t idle_fast_ticks = 0;
  // Opt-in bounded flit-trace ring (SimKernel::enable_flit_trace).
  // Written only inside this shard's component phase.
  FlitTraceRing trace;

  // --- Event-stepping state -------------------------------------------
  // All vectors are sized once in SimKernel::prepare_event_state() and
  // then used with explicit counts — the steady-state event machinery
  // never touches the heap (PR 6 no-alloc contract).  Everything here
  // is touched only from this shard's phases (or from the calling
  // thread between steps), so the sharded engine needs no locks.

  // Min-heap of (cycle, node): the next pending traffic arrival per
  // node of this shard (std::push_heap/pop_heap over [0, arrival_count)).
  std::vector<std::pair<Cycle, NodeId>> arrivals;
  std::size_t arrival_count = 0;
  // Nodes whose arrival scan exhausted the current arrival limit;
  // rescanned when the limit extends (bare-step mode only).
  std::vector<NodeId> dry_nodes;
  std::size_t dry_count = 0;
  // Active component worklists.  Sorted ascending at the top of each
  // executed cycle (so tick order, trace pushes and completion
  // collection match the per-cycle kernel exactly), compacted in
  // place as components go quiescent, appended to by exchange-phase
  // wake-ups.
  std::vector<NodeId> active_nics;
  std::size_t nic_count = 0;
  std::vector<NodeId> active_routers;
  std::size_t router_count = 0;
  // Exchange-phase candidates this cycle: the channels of the shard's
  // internal links its components sent on (see mark_sent_channels).
  std::vector<int> cand_channels;
  std::size_t cand_count = 0;
  bool arrivals_seeded = false;
  // Arrival limit the last seed/rescan covered (dry nodes rescan when
  // the kernel extends the limit past this).
  Cycle arrival_scanned_to = 0;
};

class SimKernel {
 public:
  virtual ~SimKernel() = default;

  // Runs warmup + measurement + drain; returns the measured stats.
  // Packets created during the measurement window are tracked; drain
  // runs until they are all ejected (or the drain limit trips, which
  // marks the run saturated).
  SimStats run();

  // Single-cycle stepping for tests and integrations: advances the
  // clock by one cycle, executed or (under event stepping) skipped.
  // Under event stepping idle routers are not ticked; their idle
  // accounting (activity taps, power hooks, idle_fast_ticks) settles
  // at window boundaries and at the end of run(), so between bare
  // steps it may lag the clock.
  virtual void step() = 0;
  Cycle now() const { return now_; }

  // Whether the kernel steps event-driven: cfg.enable_idle_fastpath,
  // fixed at construction.  Off, it steps the per-cycle reference
  // pipeline; both are bit-identical in every output.
  bool event_stepping() const { return event_mode_; }

  bool saturated() const { return saturated_; }

  // Router cycles accounted as deferred idle spans so far, summed over
  // shards, each counted as it is flushed.  Deterministic for a given
  // config+seed (a router goes idle when the quiescence predicate,
  // which reads only pre-cycle state, holds after its tick), and zero
  // on the per-cycle reference.
  std::int64_t idle_fast_ticks() const;

  // Cycles the event-stepping kernel advanced without executing (whole
  // fabric provably quiescent until the skip target).  Observability
  // only — like idle_fast_ticks, deliberately NOT part of SimStats.
  std::int64_t skipped_cycles() const { return skipped_cycles_; }

  Network& network() { return net_; }
  const Network& network() const { return net_; }

  const PartitionPlan& partition() const { return plan_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // One closed metrics window: the exact SimStats merge of every
  // event whose cycle fell in [begin, end).  `stats.measured_cycles`
  // is the window span and `stats.num_nodes` the fabric size, so the
  // usual derived metrics (throughput etc.) work per window.  Subject
  // to the same determinism contract as end-of-run stats: bit-
  // identical at any shard count, partition shape and engine.
  struct MetricsWindow {
    std::int64_t index = 0;
    Cycle begin = 0;
    Cycle end = 0;
    SimStats stats;
  };
  using WindowCallback = std::function<void(const MetricsWindow&)>;

  // Enables windowed metrics: every `window_cycles` cycles (starting
  // at the measurement window's first cycle) the per-shard window
  // slices are merged on the calling thread and handed to `cb`.  A
  // final partial window is flushed when the run loop ends.
  // window_cycles == 0 disables.  Call before run().
  void set_metrics_window(Cycle window_cycles, WindowCallback cb = nullptr);

  // Run-lifecycle control, evaluated after each full window closes
  // (on the calling thread, between steps — the only safe point to
  // stop a sharded run).  kCancel and kAbortSaturated terminate the
  // run loop at that boundary; collect_stats() then covers exactly
  // the windows that closed.  The verdict is a pure function of the
  // window (and whatever deterministic state the callback keeps), so
  // a control hook that never fires leaves the run bit-identical —
  // the window series itself does not change.  Requires a metrics
  // window; with window_cycles == 0 the hook is never consulted.
  enum class WindowVerdict {
    kContinue,
    kCancel,
    kAbortSaturated,
    // Fault injection left the fabric (partially) disconnected and the
    // caller wants served jobs to fail fast instead of draining a
    // degraded run to the limit.
    kAbortDisconnected,
  };
  using WindowControl = std::function<WindowVerdict(const MetricsWindow&)>;
  void set_window_control(WindowControl control);

  // True when a window control terminated the run early.
  bool canceled() const { return canceled_; }
  bool aborted_saturated() const { return aborted_saturated_; }
  bool aborted_disconnected() const { return aborted_disconnected_; }

  // --- Fault injection (cfg.fault.enabled()) ------------------------
  // Null when faults are disabled — the fabric then runs the exact
  // pre-fault code paths (routers hold a null fault table).
  const FaultController* fault_controller() const { return fault_.get(); }
  // Ordered node pairs currently unreachable (0 without faults).
  std::int64_t unreachable_pairs() const {
    return fault_ != nullptr ? fault_->unreachable_pairs() : 0;
  }
  // Invoked on the calling thread for every applied fault event,
  // immediately after its surgery completes (telemetry hook).
  using FaultCallback = std::function<void(const FaultReport&)>;
  void set_fault_callback(FaultCallback cb) { fault_cb_ = std::move(cb); }

  // Marks the run canceled before it starts (a job whose cancel flag
  // was already set when its worker picked it up); the caller then
  // skips run() and the summary reports canceled with zero cycles.
  void mark_canceled() { canceled_ = true; }

  // Attaches per-shard profiling counters (nullptr detaches).  The
  // collector is resized to the kernel's shard count and written from
  // the shard phases through the LAIN_TELEMETRY_* hooks; read it
  // between steps or after run().  Host-side observability only —
  // never feeds back into the simulation.
  virtual void set_telemetry(telemetry::Collector* collector);

  // Enables the bounded per-flit trace: each shard keeps the last
  // `per_shard_capacity` injection/route/ejection events in an
  // overwrite-oldest ring (0 disables).  Call before run().
  void enable_flit_trace(std::size_t per_shard_capacity);
  // Merged trace, sorted by (cycle, node, packet, kind).  Call after
  // run()/between steps.
  std::vector<FlitTraceEvent> collect_flit_trace() const;
  // Events lost to ring overwrites, summed over shards.
  std::int64_t flit_trace_dropped() const;

 protected:
  explicit SimKernel(const SimConfig& cfg);

  // Builds the partition plan and per-shard state.  Every engine
  // constructor must call this exactly once before the first step.
  void init_partition(PartitionStrategy strategy, int num_shards);

  // The per-cycle reference (cfg.enable_idle_fastpath off).
  // Component phase for one shard: generate traffic, tick every NIC
  // and run every router's full pipeline, collect completions.
  // Touches only the shard's nodes and node-local generator state;
  // safe to run concurrently with other shards' component phases.
  void step_shard_components(std::size_t shard_index);
  // Exchange phase for one shard: advance every channel it consumes.
  void step_shard_channels(std::size_t shard_index);

  // Fabric-wide tracked packet count and the merged measured stats
  // (called once, after the run loop ends).
  std::int64_t tracked_pending() const;
  SimStats collect_stats();

  // Applies every fault event and retransmission due at now_ and
  // attributes the consequences (lost/retransmit/abandoned packets) to
  // the owning shards' stats slices.  Called from the run loop between
  // steps — stop-the-world, every shard parked — so it may mutate any
  // component directly (the flush_deferred_idle precedent).
  void process_fault_cycle();

  // Closes the current metrics window at `end`: merges + resets every
  // shard's window slice (in shard order, on the calling thread) and
  // invokes the window callback.  Returns the merged window so the
  // run loop can consult the control hook.
  MetricsWindow flush_window(Cycle end);

  // --- Event-stepping machinery --------------------------------------
  //
  // The event kernel keeps, per shard, the set of components with
  // work (active lists, woken by exchange-phase flit admissions), the
  // set of channels its components sent on this cycle (candidate list),
  // and a min-heap of pending traffic arrivals.  An executed cycle
  // touches only those sets; when every shard's sets are empty until a
  // later cycle, the clock jumps there between steps.  Idle routers are
  // not ticked at all — their idle accounting (activity tap + power
  // hook) is deferred in idle_from_ and flushed in one tick_idle_n()
  // batch at the next full tick, window boundary, or stats collection,
  // which keeps every power column and idle histogram bit-identical
  // to per-cycle stepping.

  // Sizes the per-shard event state; called from init_partition.
  void prepare_event_state();
  // The earliest cycle this shard has work at: now_ when it has an
  // active component, else its next traffic arrival, else
  // kNoEventCycle.  Also performs the shard's lazy arrival-heap
  // seeding/extension.  Called on the calling thread between steps,
  // under the shard's component phase scope.
  static constexpr Cycle kNoEventCycle = std::numeric_limits<Cycle>::max();
  Cycle shard_horizon(std::size_t shard_index);
  // Event-driven component phase for one shard (executed cycles only).
  void step_shard_event_components(std::size_t shard_index);
  // Event-driven exchange phase: tick the candidate channels and the
  // shard's boundary channels, and wake the consumers of flit
  // admissions.
  void step_shard_event_channels(std::size_t shard_index);
  // Bare-step arrival-limit maintenance: keeps the scan bound a chunk
  // ahead of now_ so next_arrival never scans unboundedly (a node
  // whose pattern always self-addresses would otherwise never yield).
  void maintain_arrival_limit();
  // Flushes every router's deferred idle accounting up to `upto`
  // (calling thread, between steps; used by flush_window and
  // collect_stats).
  void flush_deferred_idle(Cycle upto);
  // The cap run() imposes on a skip this step (next window boundary,
  // injection stop, drain limit); < 0 means bare stepping (cap one
  // cycle past now_).
  Cycle skip_cap_ = -1;
  // Arrival-scan bound: next_arrival() consumes RNG draws only for
  // cycles < arrival_limit_, exactly matching per-cycle polling.
  // run() pins it to the injection stop; bare stepping extends it
  // chunk-wise ahead of now_ and rescans dry nodes.
  Cycle arrival_limit_ = 0;
  bool arrival_limit_final_ = false;
  std::int64_t skipped_cycles_ = 0;
  // Event-driven stepping (cfg.enable_idle_fastpath), fixed at
  // construction.
  const bool event_mode_;

  // Per-node event bookkeeping (indexed by node; each entry touched
  // only by its owning shard's phases or the calling thread between
  // steps).
  std::vector<std::uint8_t> nic_active_flag_;
  std::vector<std::uint8_t> router_active_flag_;
  // First cycle not yet accounted in each router's idle bookkeeping.
  std::vector<Cycle> idle_from_;
  // send_link_[n * kSendBits + b]: the link behind bit b of node n's
  // send masks (see SendMask), or -1 when the node has no such link or
  // the link crosses a shard boundary (its channels are boundary
  // channels, ticked every executed cycle by their consumers' shards).
  std::vector<int> send_link_;
  // Per-link flit consumer (indexed by link), woken when the exchange
  // phase admits a flit into the link's pipe.  A credit needs no
  // wake-up: the exchange phase adds it to its consumer's counter.
  struct FlitConsumer {
    NodeId node = kInvalidNode;
    bool is_nic = false;
  };
  std::vector<FlitConsumer> consumer_;

  SimConfig cfg_;
  Network net_;
  TrafficGenerator gen_;
  PartitionPlan plan_;
  std::vector<Shard> shards_;
  Cycle now_ = 0;
  bool injecting_ = true;
  bool saturated_ = false;
  bool canceled_ = false;
  bool aborted_saturated_ = false;
  bool aborted_disconnected_ = false;
  // Fault injection (null when cfg.fault.enabled() is false).
  std::unique_ptr<FaultController> fault_;
  FaultCallback fault_cb_;
  Cycle measure_start_ = 0;
  Cycle measure_end_ = 0;
  // Per-node packet sequence numbers; packet n<<32|seq is unique and
  // independent of the shard layout.
  std::vector<PacketId> packet_seq_;
  // Windowed-metrics state (all driven from the run loop, between
  // steps, on the calling thread).
  Cycle window_cycles_ = 0;
  Cycle window_begin_ = 0;
  std::int64_t window_index_ = 0;
  WindowCallback window_cb_;
  WindowControl window_control_;
  bool windowed_ = false;
  bool tracing_ = false;
  telemetry::Collector* telemetry_ = nullptr;

 private:
  // --- Steps the component phases share ------------------------------
  // Whether a packet created at `created` is tracked (created in the
  // measurement window).
  bool tracked(Cycle created) const {
    return created >= measure_start_ && created < measure_end_;
  }
  // Applies `update` to the shard's end-of-run stats and, under a
  // metrics window, to its window slice: every counted event lands in
  // both.
  template <typename Update>
  void update_stats(Shard& sh, Update&& update) {
    update(sh.stats);
    if (windowed_) update(sh.window_stats);
  }
  // Sources one generated packet at node n (after its RNG draw, so the
  // traffic stream is the same whether or not it enters the fabric):
  // drops it at the source when faults made it undeliverable, else
  // numbers it, queues it at the NIC and counts it.  Returns whether
  // the NIC got the packet.
  bool source_packet(Shard& sh, NodeId n, NodeId dst);
  // Traces one completion at node n and, when the packet was created in
  // the measurement window, records its ejection.
  void record_completion(Shard& sh, NodeId n, const Nic::Ejection& e);
  // Event phase: settles router n's deferred idle span, then runs its
  // full pipeline for now_.
  void tick_router_full(Shard& sh, NodeId n);
  // Exchange-phase wake-ups: every flit channel is ticked by its
  // consumer's shard, so the woken component is always in `sh`.
  void wake_nic(Shard& sh, NodeId n) {
    if (nic_active_flag_[static_cast<std::size_t>(n)] == 0) {
      nic_active_flag_[static_cast<std::size_t>(n)] = 1;
      sh.active_nics[sh.nic_count++] = n;
    }
  }
  void wake_router(Shard& sh, NodeId n) {
    if (router_active_flag_[static_cast<std::size_t>(n)] == 0) {
      router_active_flag_[static_cast<std::size_t>(n)] = 1;
      sh.active_routers[sh.router_count++] = n;
    }
  }
  // Makes the channels node n's router (nic false) or NIC (nic true)
  // just sent on (its send mask) exchange candidates.  A router sends
  // flits on its out bits and credits on its in bits, a NIC the other
  // way round.  No channel repeats: each has one producer, which sends
  // on it at most once a cycle.
  void mark_sent_channels(Shard& sh, NodeId n, SendMask sent, bool nic) {
    const int* links = &send_link_[static_cast<std::size_t>(n) * kSendBits];
    for (Mask m = sent; m != 0; m &= m - 1) {
      const int bit = lowest_bit(m);
      const int li = links[bit];
      if (li >= 0) {
        sh.cand_channels[sh.cand_count++] =
            Network::channel_id(li, (bit >= kNumPorts) != nic);
      }
    }
  }
};

}  // namespace lain::noc
