#include "noc/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace lain::noc {

namespace {

// Bare-step arrival-scan chunk: how far ahead of now_ the event
// kernel scans each node's traffic stream.  Large enough to amortize
// the dry-node rescan, small enough that abandoning a bare-stepped
// sim wastes a negligible number of pre-drawn arrivals.
constexpr Cycle kArrivalChunk = 4096;

// Min-heap order for the per-shard arrival heap: earliest cycle
// first, ties broken by node id so same-cycle arrivals pop in
// ascending node order — the per-cycle kernel's injection loop order.
struct ArrivalOrder {
  bool operator()(const std::pair<Cycle, NodeId>& a,
                  const std::pair<Cycle, NodeId>& b) const {
    return a > b;
  }
};

// One ejection, recorded into a stats slice.
void record_ejection(SimStats& st, const Nic::Ejection& e,
                     int packet_length_flits) {
  ++st.packets_ejected;
  st.flits_ejected += packet_length_flits;
  st.packet_latency.add(static_cast<double>(e.ejected - e.created));
  st.network_latency.add(static_cast<double>(e.ejected - e.injected));
  st.hops.add(static_cast<double>(e.hops));
  st.latency_hist.add(e.ejected - e.created);
}

}  // namespace

SimKernel::SimKernel(const SimConfig& cfg)
    : event_mode_(cfg.enable_idle_fastpath),
      cfg_(cfg),
      net_(cfg),
      gen_(cfg) {
  measure_start_ = cfg.warmup_cycles;
  measure_end_ = cfg.warmup_cycles + cfg.measure_cycles;
  packet_seq_.assign(static_cast<size_t>(cfg.num_nodes()), 0);
  if (cfg_.fault.enabled()) {
    // FaultPlan::build validates the schedule against the wired fabric
    // and throws on a disconnecting plan without allow_partition — the
    // diagnostic surfaces through the scenario layer before any cycle
    // runs.
    fault_ = std::make_unique<FaultController>(cfg_, net_,
                                               FaultPlan::build(cfg_, net_));
    for (NodeId n = 0; n < cfg_.num_nodes(); ++n) {
      net_.router(n).set_fault_table(fault_->table_ptr());
    }
  }
}

void SimKernel::init_partition(PartitionStrategy strategy, int num_shards) {
  plan_ = make_partition(net_, strategy, num_shards);
  shards_ = std::vector<Shard>(static_cast<std::size_t>(plan_.num_shards()));
  // Racecheck: stamp every component and channel with its owning
  // shard so out-of-phase or cross-shard access aborts (no-op unless
  // built with LAIN_RACECHECK).
  net_.rc_tag_shards(plan_.shard_of);
  prepare_event_state();
}

void SimKernel::prepare_event_state() {
  const std::size_t nn = static_cast<std::size_t>(cfg_.num_nodes());
  const int nl = net_.num_links();
  nic_active_flag_.assign(nn, 0);
  router_active_flag_.assign(nn, 0);
  idle_from_.assign(nn, 0);
  consumer_.assign(static_cast<std::size_t>(nl), FlitConsumer{});
  send_link_.assign(nn * kSendBits, -1);
  auto shard_of = [&](NodeId n) {
    return plan_.shard_of[static_cast<std::size_t>(n)];
  };
  // The link behind bit `bit` of node n's send masks.
  auto send_slot = [&](NodeId n, int bit) -> int& {
    return send_link_[static_cast<std::size_t>(n) * kSendBits +
                      static_cast<std::size_t>(bit)];
  };
  using Kind = Network::LinkKind;
  for (int li = 0; li < nl; ++li) {
    const NodeId src = net_.link_source(li);
    const NodeId own = net_.link_owner(li);
    const Kind kind = net_.link_kind(li);
    // Flits flow from the source to the owner.
    consumer_[static_cast<std::size_t>(li)] = {own, kind == Kind::kEjection};
    if (shard_of(src) != shard_of(own)) continue;
    // The link leaves the source's router on port d (unless the NIC
    // injects on it) and enters the owner's router on the opposite
    // port (unless it ejects to the NIC).
    const Dir d = net_.link_dir(li);
    if (kind != Kind::kInjection) send_slot(src, port(d)) = li;
    if (kind != Kind::kEjection) {
      send_slot(own, kNumPorts + port(opposite(d))) = li;
    }
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardPlan& sp = plan_.shards[s];
    Shard& sh = shards_[s];
    const std::size_t nodes = sp.nodes.size();
    sh.arrivals.assign(nodes, {Cycle{0}, kInvalidNode});
    sh.dry_nodes.assign(nodes, kInvalidNode);
    sh.active_nics.assign(nodes, kInvalidNode);
    sh.active_routers.assign(nodes, kInvalidNode);
    sh.cand_channels.assign(2 * sp.links.size(), 0);
    sh.arrival_count = sh.dry_count = 0;
    sh.nic_count = sh.router_count = 0;
    sh.cand_count = 0;
    sh.arrivals_seeded = false;
    sh.arrival_scanned_to = 0;
  }
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::maintain_arrival_limit() {
  if (arrival_limit_final_) return;
  if (arrival_limit_ < now_ + 2) arrival_limit_ = now_ + kArrivalChunk;
}

LAIN_HOT_PATH LAIN_NO_ALLOC Cycle SimKernel::shard_horizon(
    std::size_t shard_index) {
  contracts::PhaseScope rc_scope(contracts::Phase::component,
                                 static_cast<int>(shard_index));
  const ShardPlan& sp = plan_.shards[shard_index];
  Shard& sh = shards_[shard_index];
  if (injecting_) {
    if (!sh.arrivals_seeded) {
      sh.arrivals_seeded = true;
      sh.arrival_scanned_to = arrival_limit_;
      for (NodeId n : sp.nodes) {
        const Cycle c = gen_.next_arrival(n, arrival_limit_);
        if (c != TrafficGenerator::kNoArrival) {
          sh.arrivals[sh.arrival_count++] = {c, n};
        } else {
          sh.dry_nodes[sh.dry_count++] = n;
        }
      }
      std::make_heap(
          sh.arrivals.begin(),
          sh.arrivals.begin() + static_cast<std::ptrdiff_t>(sh.arrival_count),
          ArrivalOrder{});
    } else if (sh.dry_count > 0 && arrival_limit_ > sh.arrival_scanned_to) {
      // The scan bound moved (bare-step chunk extension): retry the
      // nodes whose last scan came up dry.
      sh.arrival_scanned_to = arrival_limit_;
      std::size_t still_dry = 0;
      for (std::size_t i = 0; i < sh.dry_count; ++i) {
        const NodeId n = sh.dry_nodes[i];
        const Cycle c = gen_.next_arrival(n, arrival_limit_);
        if (c != TrafficGenerator::kNoArrival) {
          sh.arrivals[sh.arrival_count++] = {c, n};
          std::push_heap(sh.arrivals.begin(),
                         sh.arrivals.begin() +
                             static_cast<std::ptrdiff_t>(sh.arrival_count),
                         ArrivalOrder{});
        } else {
          sh.dry_nodes[still_dry++] = n;
        }
      }
      sh.dry_count = still_dry;
    }
  }
  if (sh.nic_count > 0 || sh.router_count > 0) return now_;
  if (injecting_ && sh.arrival_count > 0) return sh.arrivals[0].first;
  return kNoEventCycle;
}

LAIN_HOT_PATH LAIN_NO_ALLOC bool SimKernel::source_packet(Shard& sh, NodeId n,
                                                        NodeId dst) {
  const bool counted = tracked(now_);
  if (fault_ != nullptr &&
      (!fault_->node_alive(n) || !fault_->dst_reachable(n, dst))) {
    if (counted) {
      update_stats(sh, [](SimStats& st) { ++st.packets_unreachable_dropped; });
    }
    return false;
  }
  const PacketId id = (static_cast<PacketId>(n) << 32) |
                      packet_seq_[static_cast<size_t>(n)]++;
  net_.nic(n).source_packet(dst, now_, id);
  if (tracing_) sh.trace.push({now_, id, n, FlitTraceKind::kInject, -1});
  if (counted) {
    ++sh.tracked_pending;
    const int len = cfg_.packet_length_flits;
    update_stats(sh, [len](SimStats& st) {
      ++st.packets_injected;
      st.flits_injected += len;
    });
  }
  return true;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::record_completion(
    Shard& sh, NodeId n, const Nic::Ejection& e) {
  if (tracing_) sh.trace.push({now_, e.packet, n, FlitTraceKind::kEject, -1});
  if (!tracked(e.created)) return;
  --sh.tracked_pending;
  const int len = cfg_.packet_length_flits;
  update_stats(sh, [&e, len](SimStats& st) { record_ejection(st, e, len); });
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::tick_router_full(Shard& sh,
                                                             NodeId n) {
  Router& r = net_.router(n);
  Cycle& from = idle_from_[static_cast<std::size_t>(n)];
  if (from < now_) {
    r.tick_idle_n(now_ - from);
    sh.idle_fast_ticks += now_ - from;
  }
  from = now_ + 1;
  r.tick();
  mark_sent_channels(sh, n, r.sent_links(), false);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::step_shard_event_components(
    std::size_t shard_index) {
  contracts::PhaseScope rc_scope(contracts::Phase::component,
                                 static_cast<int>(shard_index));
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index),
                       component_ns);
  Shard& sh = shards_[shard_index];
  if (tracing_) sh.trace.set_cycle(now_);
  // Phase 1: traffic arrivals due this cycle.  (cycle, node) heap
  // order means same-cycle arrivals source in ascending node order,
  // matching the per-cycle injection loop.
  if (injecting_) {
    while (sh.arrival_count > 0 && sh.arrivals[0].first <= now_) {
      assert(sh.arrivals[0].first == now_ &&
             "arrival heap fell behind the clock");
      std::pop_heap(
          sh.arrivals.begin(),
          sh.arrivals.begin() + static_cast<std::ptrdiff_t>(sh.arrival_count),
          ArrivalOrder{});
      --sh.arrival_count;
      const NodeId n = sh.arrivals[sh.arrival_count].second;
      if (source_packet(sh, n, gen_.take_arrival(n))) wake_nic(sh, n);
      const Cycle next = gen_.next_arrival(n, arrival_limit_);
      if (next != TrafficGenerator::kNoArrival) {
        sh.arrivals[sh.arrival_count++] = {next, n};
        std::push_heap(
            sh.arrivals.begin(),
            sh.arrivals.begin() + static_cast<std::ptrdiff_t>(sh.arrival_count),
            ArrivalOrder{});
      } else {
        sh.dry_nodes[sh.dry_count++] = n;
      }
    }
  }
  // Phase 2: NIC ticks, ascending.  Completions are collected inline
  // — router ticks cannot add completions, so the eject sample order
  // still matches the per-cycle kernel's ascending collection loop.
  std::sort(sh.active_nics.begin(),
            sh.active_nics.begin() + static_cast<std::ptrdiff_t>(sh.nic_count));
  const std::size_t nics_this_cycle = sh.nic_count;
  std::size_t nic_kept = 0;
  for (std::size_t i = 0; i < nics_this_cycle; ++i) {
    const NodeId n = sh.active_nics[i];
    Nic& nic = net_.nic(n);
    nic.tick(now_);
    mark_sent_channels(sh, n, nic.sent_links(), true);
    for (const Nic::Ejection& e : nic.completions()) {
      record_completion(sh, n, e);
    }
    if (nic.quiescent()) {
      nic_active_flag_[static_cast<std::size_t>(n)] = 0;
    } else {
      sh.active_nics[nic_kept++] = n;
    }
  }
  sh.nic_count = nic_kept;
  // Phase 3: routers, ascending.  A full tick is preceded by a batch
  // flush of the router's deferred idle span, so the activity tap and
  // power hook replay the exact per-cycle history.
  std::sort(
      sh.active_routers.begin(),
      sh.active_routers.begin() + static_cast<std::ptrdiff_t>(sh.router_count));
  const std::size_t routers_this_cycle = sh.router_count;
  std::size_t router_kept = 0;
  for (std::size_t i = 0; i < routers_this_cycle; ++i) {
    const NodeId n = sh.active_routers[i];
    tick_router_full(sh, n);
    if (net_.router(n).quiescent()) {
      router_active_flag_[static_cast<std::size_t>(n)] = 0;
    } else {
      sh.active_routers[router_kept++] = n;
    }
  }
  sh.router_count = router_kept;
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       component_calls, 1);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::step_shard_event_channels(
    std::size_t shard_index) {
  contracts::PhaseScope rc_scope(contracts::Phase::exchange,
                                 static_cast<int>(shard_index));
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index),
                       exchange_ns);
  Shard& sh = shards_[shard_index];
  const std::vector<int>& boundary =
      plan_.shards[shard_index].boundary_channels;
  // Ticks channel c; a flit admission wakes its consumer.  A credit
  // lands in its consumer's counter, which nothing reads before that
  // consumer's next tick, so it wakes nobody.
  auto exchange = [&](int c) {
    if (!net_.tick_channel(c)) return false;
    if (!Network::is_credit_channel(c)) {
      const FlitConsumer& to =
          consumer_[static_cast<std::size_t>(Network::channel_link(c))];
      if (to.is_nic) {
        wake_nic(sh, to.node);
      } else {
        wake_router(sh, to.node);
      }
    }
    return true;
  };
  // Ticking an internal channel nothing was sent on is a no-op, so
  // ticking only the candidates evolves the fabric bit-identically to
  // ticking every channel the shard consumes.  Every candidate moves
  // an item: one marked twice would find nothing staged the second
  // time.
  for (std::size_t i = 0; i < sh.cand_count; ++i) {
    [[maybe_unused]] const bool moved = exchange(sh.cand_channels[i]);
    assert(moved && "a channel marked as sent on had nothing staged");
  }
  // A boundary channel's producer runs in another shard, so it is
  // ticked whether or not anything was sent on it.
  for (int c : boundary) exchange(c);
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       exchange_calls, 1);
  LAIN_TELEMETRY_COUNT(
      telemetry_, static_cast<int>(shard_index), channel_ticks,
      static_cast<std::int64_t>(sh.cand_count + boundary.size()));
  sh.cand_count = 0;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::flush_deferred_idle(Cycle upto) {
  if (!event_mode_) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    contracts::PhaseScope rc_scope(contracts::Phase::component,
                                   static_cast<int>(s));
    Shard& sh = shards_[s];
    for (NodeId n : plan_.shards[s].nodes) {
      Cycle& from = idle_from_[static_cast<std::size_t>(n)];
      if (from < upto) {
        net_.router(n).tick_idle_n(upto - from);
        sh.idle_fast_ticks += upto - from;
        from = upto;
      }
    }
  }
}

void SimKernel::step_shard_components(std::size_t shard_index) {
  // Marks this thread as stepping `shard_index`'s component phase;
  // covers the serial engine (shard 0 inline) and every sharded
  // worker alike.  Compiles away unless built with LAIN_RACECHECK.
  contracts::PhaseScope rc_scope(contracts::Phase::component,
                                 static_cast<int>(shard_index));
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index),
                       component_ns);
  const ShardPlan& sp = plan_.shards[shard_index];
  Shard& sh = shards_[shard_index];
  // Stamp the ring with this cycle so the routers' ST-stage pushes
  // (which have no cycle argument) record it.
  if (tracing_) sh.trace.set_cycle(now_);
  if (injecting_) {
    for (NodeId n : sp.nodes) {
      const NodeId dst = gen_.maybe_generate(n);
      if (dst != kInvalidNode) source_packet(sh, n, dst);
    }
  }
  for (NodeId n : sp.nodes) net_.nic(n).tick(now_);
  for (NodeId n : sp.nodes) net_.router(n).tick();
  // Collect completions at this shard's NICs.  The packet may have
  // been injected by another shard; the counters still sum correctly
  // because every event lands in exactly one shard.
  for (NodeId n : sp.nodes) {
    for (const Nic::Ejection& e : net_.nic(n).completions()) {
      record_completion(sh, n, e);
    }
  }
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       component_calls, 1);
}

void SimKernel::step_shard_channels(std::size_t shard_index) {
  contracts::PhaseScope rc_scope(contracts::Phase::exchange,
                                 static_cast<int>(shard_index));
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index),
                       exchange_ns);
  const ShardPlan& sp = plan_.shards[shard_index];
  for (int li : sp.links) net_.tick_link(li);
  for (int c : sp.boundary_channels) net_.tick_channel(c);
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       exchange_calls, 1);
  LAIN_TELEMETRY_COUNT(
      telemetry_, static_cast<int>(shard_index), channel_ticks,
      static_cast<std::int64_t>(2 * sp.links.size() +
                                sp.boundary_channels.size()));
}

void SimKernel::set_metrics_window(Cycle window_cycles, WindowCallback cb) {
  window_cycles_ = window_cycles;
  windowed_ = window_cycles > 0;
  window_cb_ = std::move(cb);
  // Windows tile the measured region: the first one opens at the
  // measurement start, so warmup traffic never lands in a window
  // (matching the end-of-run stats contract).
  window_begin_ = measure_start_;
  window_index_ = 0;
}

void SimKernel::set_window_control(WindowControl control) {
  window_control_ = std::move(control);
}

void SimKernel::set_telemetry(telemetry::Collector* collector) {
  telemetry_ = collector;
  if (telemetry_ != nullptr) telemetry_->resize(num_shards());
}

void SimKernel::enable_flit_trace(std::size_t per_shard_capacity) {
  tracing_ = per_shard_capacity > 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].trace.reset(per_shard_capacity);
    FlitTraceRing* ring = tracing_ ? &shards_[s].trace : nullptr;
    for (NodeId n : plan_.shards[s].nodes) net_.router(n).set_flit_trace(ring);
  }
}

std::vector<FlitTraceEvent> SimKernel::collect_flit_trace() const {
  std::vector<FlitTraceEvent> out;
  for (const Shard& sh : shards_) {
    const std::vector<FlitTraceEvent> part = sh.trace.snapshot();
    out.insert(out.end(), part.begin(), part.end());
  }
  // Shard layout must not show through in the merged trace: order by
  // simulated time, then location, then packet.  stable_sort keeps
  // same-key events (multi-flit packets at one router) in per-ring
  // push order.
  std::stable_sort(out.begin(), out.end(),
                   [](const FlitTraceEvent& a, const FlitTraceEvent& b) {
                     return std::tie(a.cycle, a.node, a.packet, a.kind) <
                            std::tie(b.cycle, b.node, b.packet, b.kind);
                   });
  return out;
}

std::int64_t SimKernel::flit_trace_dropped() const {
  std::int64_t n = 0;
  for (const Shard& sh : shards_) n += sh.trace.dropped();
  return n;
}

SimKernel::MetricsWindow SimKernel::flush_window(Cycle end) {
  // Event stepping defers idle accounting; settle it through the
  // window boundary so anything reading activity taps or power hooks
  // between windows sees the fully-accounted fabric.
  flush_deferred_idle(end);
  MetricsWindow w;
  w.index = window_index_++;
  w.begin = window_begin_;
  w.end = end;
  // Same exact merge as collect_stats(), in the same fixed shard
  // order — the windowed series inherits the bit-identity contract.
  for (Shard& sh : shards_) {
    w.stats.merge(sh.window_stats);
    sh.window_stats = SimStats{};
  }
  w.stats.num_nodes = cfg_.num_nodes();
  w.stats.measured_cycles = end - window_begin_;
  window_begin_ = end;
  if (window_cb_) window_cb_(w);
  return w;
}

std::int64_t SimKernel::idle_fast_ticks() const {
  std::int64_t n = 0;
  for (const Shard& sh : shards_) n += sh.idle_fast_ticks;
  return n;
}

std::int64_t SimKernel::tracked_pending() const {
  std::int64_t pending = 0;
  for (const Shard& sh : shards_) pending += sh.tracked_pending;
  return pending;
}

void SimKernel::process_fault_cycle() {
  const FaultController::CycleOutcome out = fault_->process(now_);
  const int len = cfg_.packet_length_flits;
  auto shard_of_node = [&](NodeId n) -> Shard& {
    return shards_[static_cast<std::size_t>(
        plan_.shard_of[static_cast<std::size_t>(n)])];
  };
  // Loss attribution: the kernel's flit accounting is packet-granular
  // (record_ejection adds a whole packet length on the tail), so a
  // lost packet counts its full length — conservation then holds
  // exactly: flits_injected == flits_ejected + flits_lost + (len *
  // tracked_pending) at any stop-the-world point.  All columns gate on
  // `created` in the measurement window, like record_completion.
  for (const LostPacket& lp : out.lost) {
    if (!tracked(lp.created)) continue;
    Shard& sh = shard_of_node(lp.src);
    // A packet not retransmitted is abandoned outright (source dead or
    // destination unreachable): it leaves the tracked set so drain can
    // complete.
    const bool abandoned = !lp.retransmit;
    update_stats(sh, [len, abandoned](SimStats& st) {
      ++st.packets_lost;
      st.flits_lost += len;
      if (abandoned) ++st.packets_unreachable_dropped;
    });
    if (abandoned) --sh.tracked_pending;
  }
  // Retransmissions firing now re-enter at the source NIC with the
  // original creation stamp (end-to-end latency spans every attempt)
  // and re-count as injected — injected = ejected + lost + pending
  // stays an identity.
  for (const RetxDue& r : out.retransmit_now) {
    net_.nic(r.src).source_packet(r.dst, r.created, r.packet);
    Shard& sh = shard_of_node(r.src);
    if (event_mode_) wake_nic(sh, r.src);
    if (!tracked(r.created)) continue;
    update_stats(sh, [len](SimStats& st) {
      ++st.packets_retransmitted;
      ++st.packets_injected;
      st.flits_injected += len;
    });
  }
  for (const RetxDue& r : out.abandoned_now) {
    if (!tracked(r.created)) continue;
    Shard& sh = shard_of_node(r.src);
    update_stats(sh, [](SimStats& st) { ++st.packets_unreachable_dropped; });
    --sh.tracked_pending;
  }
  if (out.reconfigured && event_mode_) {
    // The surgery may have unblocked any component in the fabric
    // (credits repaired, heads rerouted): wake everything alive so the
    // next executed cycle re-probes quiescence from scratch.  A router
    // that really has nothing to do drops off the active list again
    // after one full tick, which idle_fast_ticks does not count as
    // idle; that counter is deliberately not part of SimStats.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& sh = shards_[s];
      for (NodeId n : plan_.shards[s].nodes) {
        if (!fault_->node_alive(n)) continue;
        wake_router(sh, n);
        if (!net_.nic(n).fault_killed()) wake_nic(sh, n);
      }
    }
  }
  if (fault_cb_) {
    for (const FaultReport& rep : out.reports) fault_cb_(rep);
  }
}

SimStats SimKernel::collect_stats() {
  flush_deferred_idle(now_);
  SimStats st;
  for (const Shard& sh : shards_) st.merge(sh.stats);
  st.num_nodes = cfg_.num_nodes();
  // A control-terminated run covers only the measured cycles that
  // actually elapsed; a full run reports the configured span even
  // when the drain tail ran past it (unchanged contract).
  if (canceled_ || aborted_saturated_ || aborted_disconnected_) {
    const Cycle measured = std::min(now_, measure_end_);
    st.measured_cycles =
        measured > measure_start_ ? measured - measure_start_ : 0;
  } else {
    st.measured_cycles = cfg_.measure_cycles;
  }
  return st;
}

SimStats SimKernel::run() {
  const Cycle inject_until = measure_end_;
  const Cycle hard_limit = measure_end_ + cfg_.drain_limit_cycles;
  if (event_mode_) {
    // Pin the arrival-scan bound to the injection stop: next_arrival
    // consumes exactly the RNG draws per-cycle polling would, and a
    // node whose pattern never generates cannot stall the scan.
    if (arrival_limit_ < inject_until) arrival_limit_ = inject_until;
    arrival_limit_final_ = true;
  }
  // Precomputed next window boundary: one compare per cycle instead
  // of a flag test plus an add, and in event mode the skip cap that
  // keeps windows closing at exact cycle boundaries.
  Cycle next_window_end =
      windowed_ ? window_begin_ + window_cycles_ : kNoEventCycle;
  while (true) {
    injecting_ = now_ < inject_until;
    // Fault work due this cycle runs stop-the-world before the step,
    // so the step already sees the post-fault fabric (same cycle on
    // every engine — bit-identity holds degraded too).
    if (fault_ != nullptr && fault_->due(now_)) process_fault_cycle();
    if (event_mode_) {
      Cycle cap = hard_limit;
      if (injecting_ && inject_until < cap) cap = inject_until;
      if (next_window_end < cap) cap = next_window_end;
      // A skip must never jump a scheduled fault or retransmit cycle.
      if (fault_ != nullptr) {
        const Cycle due = fault_->next_due();
        if (due < cap) cap = due;
      }
      skip_cap_ = cap;
    }
    step();
    // Window boundaries are pure functions of now_, which advances
    // identically on every engine — so the windowed series flushes at
    // the same cycles regardless of shard count.  A skip never jumps
    // a boundary (skip_cap_), so now_ lands on it exactly.
    if (now_ >= next_window_end) {
      const MetricsWindow w = flush_window(next_window_end);
      next_window_end = window_begin_ + window_cycles_;
      if (window_control_) {
        const WindowVerdict v = window_control_(w);
        if (v == WindowVerdict::kCancel) {
          canceled_ = true;
          break;
        }
        if (v == WindowVerdict::kAbortSaturated) {
          aborted_saturated_ = true;
          break;
        }
        if (v == WindowVerdict::kAbortDisconnected) {
          aborted_disconnected_ = true;
          break;
        }
      }
    }
    if (now_ >= measure_end_ && tracked_pending() == 0) break;
    if (now_ >= hard_limit) {
      saturated_ = true;
      break;
    }
  }
  skip_cap_ = -1;
  // Flush the final partial window (drain-tail events land here; a
  // control-terminated run already closed its last window at the
  // boundary it stopped on, so nothing flushes twice).
  if (windowed_ && now_ > window_begin_) flush_window(now_);
  return collect_stats();
}

}  // namespace lain::noc
