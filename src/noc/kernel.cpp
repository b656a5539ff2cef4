#include "noc/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
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

// One ejection, recorded into a stats slice.  Factored so the
// windowed path records the identical sample set into the window
// slice that the end-of-run path records into the shard slice.
void record_ejection(SimStats& st, const Nic::Ejection& e,
                     int packet_length_flits) {
  ++st.packets_ejected;
  st.flits_ejected += packet_length_flits;
  st.packet_latency.add(static_cast<double>(e.ejected - e.created));
  st.network_latency.add(static_cast<double>(e.ejected - e.injected));
  st.hops.add(static_cast<double>(e.hops));
  st.latency_hist.add(e.ejected - e.created);
}

using SliceFn = std::function<void(Cycle, Network&, const ShardPlan&)>;

class FunctionSlice final : public ObserverSlice {
 public:
  explicit FunctionSlice(SliceFn fn) : fn_(std::move(fn)) {}
  void on_cycle(Cycle now, Network& net, const ShardPlan& shard) override {
    fn_(now, net, shard);
  }

 private:
  SliceFn fn_;
};

}  // namespace

std::unique_ptr<ObserverSlice> make_observer_slice(
    std::function<void(Cycle, Network&, const ShardPlan&)> fn) {
  return std::make_unique<FunctionSlice>(std::move(fn));
}

SimKernel::SimKernel(const SimConfig& cfg)
    : cfg_(cfg), net_(cfg), gen_(cfg) {
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
  if (observer_factory_) make_observer_slices();
}

void SimKernel::set_observer(ObserverFactory factory) {
  if (factory && event_mode_latched_ && event_mode_) {
    // An observer's on_cycle contract is every-cycle; a kernel that
    // already skipped cycles cannot honor it retroactively, and its
    // traffic state (pre-drawn arrivals) is not replayable by the
    // per-cycle path.  Attach observers before the first step.
    throw std::logic_error(
        "set_observer: kernel already stepped event-driven; attach "
        "observers before the first step (they force per-cycle stepping)");
  }
  observer_factory_ = std::move(factory);
  make_observer_slices();
}

bool SimKernel::use_event_mode() {
  // Latched at the first step: mixing event-driven and per-cycle
  // stepping mid-run would desynchronize the pre-drawn arrival state
  // from the per-cycle polling the slow path performs.
  if (!event_mode_latched_) {
    event_mode_latched_ = true;
    event_mode_ = cfg_.injection_rate <= kEventSteppingMaxRate &&
                  cfg_.enable_idle_fastpath && !observer_factory_;
  }
  return event_mode_;
}

void SimKernel::prepare_event_state() {
  const std::size_t nn = static_cast<std::size_t>(cfg_.num_nodes());
  const int nl = net_.num_links();
  nic_active_flag_.assign(nn, 0);
  router_active_flag_.assign(nn, 0);
  idle_from_.assign(nn, 0);
  link_marked_.assign(static_cast<std::size_t>(nl), 0);
  link_wake_.assign(static_cast<std::size_t>(nl), LinkWake{});
  node_dirty_links_.assign(nn, {});
  auto shard_of = [&](NodeId n) {
    return plan_.shard_of[static_cast<std::size_t>(n)];
  };
  for (int li = 0; li < nl; ++li) {
    const NodeId src = net_.link_source(li);
    const NodeId own = net_.link_owner(li);
    LinkWake w;
    switch (net_.link_kind(li)) {
      case Network::LinkKind::kInjection:
        // NIC(src) -> router(own) flits; credits flow back to the NIC.
        w.flit_node = own;
        w.flit_is_nic = 0;
        w.credit_node = src;
        w.credit_is_nic = 1;
        break;
      case Network::LinkKind::kEjection:
        // router(src) -> NIC(own) flits; credits back to the router.
        w.flit_node = own;
        w.flit_is_nic = 1;
        w.credit_node = src;
        w.credit_is_nic = 0;
        break;
      case Network::LinkKind::kRouter:
        w.flit_node = own;
        w.flit_is_nic = 0;
        w.credit_node = src;
        w.credit_is_nic = 0;
        w.credit_cross = shard_of(src) != shard_of(own) ? 1 : 0;
        break;
    }
    link_wake_[static_cast<std::size_t>(li)] = w;
    // Dirty-markable by every same-shard node that can stage onto the
    // link: the flit producer (source) and the credit producer
    // (owner).  Local links have source == owner, so one entry covers
    // both the NIC and the router of that node.
    node_dirty_links_[static_cast<std::size_t>(own)].push_back(li);
    if (src != own && shard_of(src) == shard_of(own)) {
      node_dirty_links_[static_cast<std::size_t>(src)].push_back(li);
    }
  }
  boundary_links_of_.assign(shards_.size(), {});
  std::vector<std::uint8_t> pinned_flag(nn, 0);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardPlan& sp = plan_.shards[s];
    Shard& sh = shards_[s];
    for (int li : sp.links) {
      if (shard_of(net_.link_source(li)) != static_cast<int>(s)) {
        boundary_links_of_[s].push_back(li);
      }
    }
    const std::size_t nodes = sp.nodes.size();
    const std::size_t links = sp.links.size();
    sh.arrivals.assign(nodes, {Cycle{0}, kInvalidNode});
    sh.dry_nodes.assign(nodes, kInvalidNode);
    sh.active_nics.assign(nodes, kInvalidNode);
    sh.active_routers.assign(nodes, kInvalidNode);
    sh.cand_links.assign(links, 0);
    sh.wet_links.assign(links, 0);
    sh.wet_scratch.assign(links, 0);
    sh.arrival_count = sh.dry_count = 0;
    sh.nic_count = sh.router_count = 0;
    sh.cand_count = sh.wet_count = 0;
    sh.arrivals_seeded = false;
    sh.arrival_scanned_to = 0;
  }
  // Pinned routers: sources of cross-shard links.  Their inbound
  // boundary credit channels are refilled by an exchange phase their
  // own shard never runs, so instead of cross-shard wake-ups they are
  // probed every executed cycle and contribute to the horizon.
  for (int li = 0; li < nl; ++li) {
    const NodeId src = net_.link_source(li);
    if (shard_of(src) == shard_of(net_.link_owner(li))) continue;
    if (pinned_flag[static_cast<std::size_t>(src)] != 0) continue;
    pinned_flag[static_cast<std::size_t>(src)] = 1;
    shards_[static_cast<std::size_t>(shard_of(src))].pinned.push_back(src);
  }
  for (Shard& sh : shards_) std::sort(sh.pinned.begin(), sh.pinned.end());
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
  Cycle h = kNoEventCycle;
  if (injecting_ && sh.arrival_count > 0) h = sh.arrivals[0].first;
  for (NodeId p : sh.pinned) {
    const Cycle c = net_.router(p).next_event_cycle(now_);
    if (c < h) h = c;
    if (h <= now_) return now_;
  }
  return h;
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
    const bool in_window = now_ >= measure_start_ && now_ < measure_end_;
    while (sh.arrival_count > 0 && sh.arrivals[0].first <= now_) {
      assert(sh.arrivals[0].first == now_ &&
             "arrival heap fell behind the clock");
      std::pop_heap(
          sh.arrivals.begin(),
          sh.arrivals.begin() + static_cast<std::ptrdiff_t>(sh.arrival_count),
          ArrivalOrder{});
      --sh.arrival_count;
      const NodeId n = sh.arrivals[sh.arrival_count].second;
      const NodeId dst = gen_.take_arrival(n);
      // Fault gate (after the RNG draw, so the traffic stream is
      // unchanged): a packet whose source is dead or whose
      // destination is unreachable is dropped at the source.
      if (fault_ != nullptr &&
          (!fault_->node_alive(n) || !fault_->dst_reachable(n, dst))) {
        if (in_window) {
          ++sh.stats.packets_unreachable_dropped;
          if (windowed_) ++sh.window_stats.packets_unreachable_dropped;
        }
      } else {
        const PacketId id = (static_cast<PacketId>(n) << 32) |
                            packet_seq_[static_cast<size_t>(n)]++;
        net_.nic(n).source_packet(dst, now_, id);
        if (tracing_) {
          sh.trace.push({now_, id, n, FlitTraceKind::kInject, -1});
        }
        if (in_window) {
          ++sh.stats.packets_injected;
          sh.stats.flits_injected += cfg_.packet_length_flits;
          ++sh.tracked_pending;
          if (windowed_) {
            ++sh.window_stats.packets_injected;
            sh.window_stats.flits_injected += cfg_.packet_length_flits;
          }
        }
        wake_nic(sh, n);
      }
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
    mark_dirty_links(sh, n);
    for (const Nic::Ejection& e : nic.completions()) {
      if (tracing_) {
        sh.trace.push({now_, e.packet, n, FlitTraceKind::kEject, -1});
      }
      const bool tracked =
          e.created >= measure_start_ && e.created < measure_end_;
      if (!tracked) continue;
      --sh.tracked_pending;
      record_ejection(sh.stats, e, cfg_.packet_length_flits);
      if (windowed_) {
        record_ejection(sh.window_stats, e, cfg_.packet_length_flits);
      }
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
    Router& r = net_.router(n);
    Cycle& from = idle_from_[static_cast<std::size_t>(n)];
    if (from < now_) {
      r.tick_idle_n(now_ - from);
      sh.idle_fast_ticks += now_ - from;
    }
    from = now_ + 1;
    r.tick();
    mark_dirty_links(sh, n);
    if (r.quiescent()) {
      router_active_flag_[static_cast<std::size_t>(n)] = 0;
    } else {
      sh.active_routers[router_kept++] = n;
    }
  }
  sh.router_count = router_kept;
  // Pinned routers not woken this cycle: probe.  Their inbound
  // boundary credits arrive without a wake-up, so a full tick runs
  // whenever the quiescence predicate fails — exactly the per-cycle
  // kernel's criterion.  A post-tick non-quiescent pinned router
  // joins the active list like any other.
  for (NodeId p : sh.pinned) {
    if (router_active_flag_[static_cast<std::size_t>(p)] != 0) continue;
    Router& r = net_.router(p);
    if (r.quiescent()) continue;
    Cycle& from = idle_from_[static_cast<std::size_t>(p)];
    if (from < now_) {
      r.tick_idle_n(now_ - from);
      sh.idle_fast_ticks += now_ - from;
    }
    from = now_ + 1;
    r.tick();
    mark_dirty_links(sh, p);
    if (!r.quiescent()) wake_router(sh, p);
  }
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       component_calls, 1);
  LAIN_TELEMETRY_SET(telemetry_, static_cast<int>(shard_index),
                     idle_fast_ticks, sh.idle_fast_ticks);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::step_shard_event_channels(
    std::size_t shard_index) {
  contracts::PhaseScope rc_scope(contracts::Phase::exchange,
                                 static_cast<int>(shard_index));
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index),
                       exchange_ns);
  Shard& sh = shards_[shard_index];
  // Candidates = dirty (marked during this shard's component phase)
  // ∪ wet ∪ owned boundary links, deduped through link_marked_.
  // Ticking a link outside this set is a no-op (nothing staged,
  // nothing in the pipe), so the reduced set evolves the fabric
  // bit-identically to ticking every owned link.
  for (std::size_t i = 0; i < sh.wet_count; ++i) {
    const int li = sh.wet_links[i];
    if (link_marked_[static_cast<std::size_t>(li)] == 0) {
      link_marked_[static_cast<std::size_t>(li)] = 1;
      sh.cand_links[sh.cand_count++] = li;
    }
  }
  for (int li : boundary_links_of_[shard_index]) {
    if (link_marked_[static_cast<std::size_t>(li)] == 0) {
      link_marked_[static_cast<std::size_t>(li)] = 1;
      sh.cand_links[sh.cand_count++] = li;
    }
  }
  std::size_t wet_new = 0;
  for (std::size_t i = 0; i < sh.cand_count; ++i) {
    const int li = sh.cand_links[i];
    const Network::LinkTickEvents ev = net_.tick_link_ev(li);
    const LinkWake& w = link_wake_[static_cast<std::size_t>(li)];
    if (ev.flit_admitted) {
      if (w.flit_is_nic != 0) {
        wake_nic(sh, w.flit_node);
      } else {
        wake_router(sh, w.flit_node);
      }
    }
    if (ev.credit_admitted && w.credit_cross == 0) {
      if (w.credit_is_nic != 0) {
        wake_nic(sh, w.credit_node);
      } else {
        wake_router(sh, w.credit_node);
      }
    }
    if (ev.wet) sh.wet_scratch[wet_new++] = li;
    link_marked_[static_cast<std::size_t>(li)] = 0;
  }
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       exchange_calls, 1);
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       channel_ticks,
                       static_cast<std::int64_t>(sh.cand_count));
  sh.cand_count = 0;
  std::swap(sh.wet_links, sh.wet_scratch);
  sh.wet_count = wet_new;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SimKernel::skip_shard_channels(
    std::size_t shard_index, Cycle d) {
  contracts::PhaseScope rc_scope(contracts::Phase::exchange,
                                 static_cast<int>(shard_index));
  Shard& sh = shards_[shard_index];
  if (sh.wet_count == 0) return;
  // Wet links surviving into a skip carry only boundary credits (a
  // wet flit pipe keeps its consumer active, which pins the horizon
  // at now_), and their consumer's shard bounded the global horizon,
  // so d never reaches a delivery: remaining fits int.
  const int n = static_cast<int>(d);
  for (std::size_t i = 0; i < sh.wet_count; ++i) {
    net_.advance_link_idle(sh.wet_links[i], n);
  }
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

void SimKernel::make_observer_slices() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].observer =
        observer_factory_
            ? observer_factory_(static_cast<int>(s), plan_.shards[s])
            : nullptr;
  }
}

void SimKernel::for_each_observer(
    const std::function<void(int, ObserverSlice&)>& fn) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].observer) fn(static_cast<int>(s), *shards_[s].observer);
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
    const bool in_window = now_ >= measure_start_ && now_ < measure_end_;
    for (NodeId n : sp.nodes) {
      const NodeId dst = gen_.maybe_generate(n);
      if (dst == kInvalidNode) continue;
      // Fault gate (after the RNG draw, so the traffic stream is
      // unchanged): a packet whose source is dead or whose destination
      // is unreachable is dropped at the source.
      if (fault_ != nullptr &&
          (!fault_->node_alive(n) || !fault_->dst_reachable(n, dst))) {
        if (in_window) {
          ++sh.stats.packets_unreachable_dropped;
          if (windowed_) ++sh.window_stats.packets_unreachable_dropped;
        }
        continue;
      }
      const PacketId id = (static_cast<PacketId>(n) << 32) |
                          packet_seq_[static_cast<size_t>(n)]++;
      net_.nic(n).source_packet(dst, now_, id);
      if (tracing_) {
        sh.trace.push({now_, id, n, FlitTraceKind::kInject, -1});
      }
      if (in_window) {
        ++sh.stats.packets_injected;
        sh.stats.flits_injected += cfg_.packet_length_flits;
        ++sh.tracked_pending;
        if (windowed_) {
          ++sh.window_stats.packets_injected;
          sh.window_stats.flits_injected += cfg_.packet_length_flits;
        }
      }
    }
  }
  for (NodeId n : sp.nodes) net_.nic(n).tick(now_);
  // The shard's active set, recomputed per cycle: a router whose
  // quiescence predicate holds takes the O(1) idle path, everything
  // else runs the full pipeline.  Polling each router's own
  // consumer-side state is the only race-free way to maintain the set
  // — a producer-side wake list would have upstream shards writing
  // into this shard's bookkeeping mid-phase.  The predicate reads
  // only pre-cycle state, so the set (and therefore every stat and
  // power column) is identical across shard counts, partition shapes
  // and the forced-slow-path configuration.
  const bool fastpath = cfg_.enable_idle_fastpath;
  for (NodeId n : sp.nodes) {
    Router& r = net_.router(n);
    if (fastpath && r.quiescent()) {
      r.tick_idle();
      ++sh.idle_fast_ticks;
    } else {
      r.tick();
    }
  }
  // Collect completions at this shard's NICs.  The packet may have
  // been injected by another shard; the counters still sum correctly
  // because every event lands in exactly one shard.
  for (NodeId n : sp.nodes) {
    for (const Nic::Ejection& e : net_.nic(n).completions()) {
      if (tracing_) {
        sh.trace.push({now_, e.packet, n, FlitTraceKind::kEject, -1});
      }
      const bool tracked =
          e.created >= measure_start_ && e.created < measure_end_;
      if (!tracked) continue;
      --sh.tracked_pending;
      record_ejection(sh.stats, e, cfg_.packet_length_flits);
      if (windowed_) {
        record_ejection(sh.window_stats, e, cfg_.packet_length_flits);
      }
    }
  }
  // The observer slice sees the shard post-tick, pre-exchange — the
  // same point in the cycle the old global hook observed, but scoped
  // to this shard and running inside its (parallel) phase.
  if (sh.observer) sh.observer->on_cycle(now_, net_, sp);
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       component_calls, 1);
  // idle_fast_ticks is already a running per-shard total; mirror it
  // rather than re-counting.
  LAIN_TELEMETRY_SET(telemetry_, static_cast<int>(shard_index),
                     idle_fast_ticks, sh.idle_fast_ticks);
}

void SimKernel::step_shard_channels(std::size_t shard_index) {
  contracts::PhaseScope rc_scope(contracts::Phase::exchange,
                                 static_cast<int>(shard_index));
  LAIN_TELEMETRY_SCOPE(telemetry_, static_cast<int>(shard_index),
                       exchange_ns);
  const std::vector<int>& links = plan_.shards[shard_index].links;
  for (int li : links) net_.tick_link(li);
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       exchange_calls, 1);
  LAIN_TELEMETRY_COUNT(telemetry_, static_cast<int>(shard_index),
                       channel_ticks, static_cast<std::int64_t>(links.size()));
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
  for_each_observer(
      [end](int, ObserverSlice& slice) { slice.on_window_flush(end); });
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
  // `created` in the measurement window, like record_ejection.
  for (const LostPacket& lp : out.lost) {
    if (lp.created < measure_start_ || lp.created >= measure_end_) continue;
    Shard& sh = shard_of_node(lp.src);
    ++sh.stats.packets_lost;
    sh.stats.flits_lost += len;
    if (windowed_) {
      ++sh.window_stats.packets_lost;
      sh.window_stats.flits_lost += len;
    }
    if (!lp.retransmit) {
      // Abandoned outright (source dead or destination unreachable):
      // the packet leaves the tracked set so drain can complete.
      ++sh.stats.packets_unreachable_dropped;
      if (windowed_) ++sh.window_stats.packets_unreachable_dropped;
      --sh.tracked_pending;
    }
  }
  // Retransmissions firing now re-enter at the source NIC with the
  // original creation stamp (end-to-end latency spans every attempt)
  // and re-count as injected — injected = ejected + lost + pending
  // stays an identity.
  for (const RetxDue& r : out.retransmit_now) {
    net_.nic(r.src).source_packet(r.dst, now_, r.packet, r.created);
    Shard& sh = shard_of_node(r.src);
    if (event_mode_) wake_nic(sh, r.src);
    if (r.created < measure_start_ || r.created >= measure_end_) continue;
    ++sh.stats.packets_retransmitted;
    ++sh.stats.packets_injected;
    sh.stats.flits_injected += len;
    if (windowed_) {
      ++sh.window_stats.packets_retransmitted;
      ++sh.window_stats.packets_injected;
      sh.window_stats.flits_injected += len;
    }
  }
  for (const RetxDue& r : out.abandoned_now) {
    if (r.created < measure_start_ || r.created >= measure_end_) continue;
    Shard& sh = shard_of_node(r.src);
    ++sh.stats.packets_unreachable_dropped;
    if (windowed_) ++sh.window_stats.packets_unreachable_dropped;
    --sh.tracked_pending;
  }
  if (out.reconfigured && event_mode_) {
    // The surgery may have unblocked any component in the fabric
    // (credits repaired, heads rerouted): wake everything alive so the
    // next executed cycle re-probes quiescence from scratch.  A router
    // that really has nothing to do drops off the active list again
    // after one probe; idle_fast_ticks may differ from the per-cycle
    // engine here, but that counter is deliberately not part of
    // SimStats.
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
  const bool event = use_event_mode();
  if (event) {
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
    if (event) {
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
