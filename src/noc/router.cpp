#include "noc/router.hpp"

#include <algorithm>
#include <cassert>

#include "noc/fault.hpp"

namespace lain::noc {
namespace {

// Dateline VC classes for the torus: a packet uses the lower half of
// the VCs until it crosses the wrap edge, the upper half afterwards.
int vc_class_of(int vc, int vcs) { return (vc < vcs / 2) ? 0 : 1; }

}  // namespace

Router::Router(NodeId id, const SimConfig& cfg)
    : id_(id),
      num_vcs_(cfg.vcs),
      depth_(cfg.vc_depth_flits),
      ctx_(cfg.route_context()),
      flit_slots_(static_cast<size_t>(kNumPorts) *
                  static_cast<size_t>(cfg.vcs) *
                  static_cast<size_t>(cfg.vc_depth_flits)),
      sa_vc_pick_{RoundRobinArbiter(cfg.vcs), RoundRobinArbiter(cfg.vcs),
                  RoundRobinArbiter(cfg.vcs), RoundRobinArbiter(cfg.vcs),
                  RoundRobinArbiter(cfg.vcs)},
      vc_alloc_(kNumPorts * cfg.vcs, kNumPorts * cfg.vcs),
      sw_alloc_(kNumPorts, kNumPorts) {
  static_assert(kNumPorts == 5, "one VC selector per port above");
  const int port_vcs = kNumPorts * cfg.vcs;
  const int depth = cfg.vc_depth_flits;
  vcs_.reserve(static_cast<size_t>(port_vcs));
  for (int i = 0; i < port_vcs; ++i) {
    vcs_.emplace_back(&flit_slots_[static_cast<size_t>(i * depth)], depth);
  }
  for (int p = 0; p < kNumPorts; ++p) {
    inputs_[static_cast<size_t>(p)] = InputPort(&vcs_[pv(p, 0)], cfg.vcs);
  }
  std::fill_n(credits_.begin(), port_vcs, cfg.vc_depth_flits);
  std::fill_n(out_vc_owner_.begin(), port_vcs, -1);
  std::fill_n(va_grant_.begin(), port_vcs, -1);
  sa_grant_.fill(-1);
  chosen_vc_.fill(-1);
}

void Router::connect_input(Dir d, FlitChannel* flits_in,
                           CreditChannel* credits_out) {
  in_flits_.at(static_cast<size_t>(port(d))) = flits_in;
  out_credits_.at(static_cast<size_t>(port(d))) = credits_out;
}

void Router::connect_output(Dir d, FlitChannel* flits_out,
                            CreditChannel* credits_in) {
  out_flits_.at(static_cast<size_t>(port(d))) = flits_out;
  credits_in->connect(&credits_[pv(port(d), 0)], depth_);
}

LAIN_HOT_PATH LAIN_NO_ALLOC bool Router::quiescent() const {
  // One branch, not two: the kernel probes every router every cycle,
  // and a separate test per field mispredicts far more often.
  if ((static_cast<Mask>(buffered_flits_) | owned_) != 0) return false;
  for (const FlitChannel* fc : in_flits_) {
    if (fc != nullptr && fc->consumer_pending()) return false;
  }
  return true;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::tick_idle() {
  rc_check_mutation("Router::tick_idle");
  LAIN_SHARD_PHASE(component);
  assert(quiescent());
  // The collapsed cycle: no stage can act, but the per-cycle
  // bookkeeping every consumer depends on — event counters, the
  // activity tap's idle-run accounting and the power hook — fires
  // exactly as the full pipeline would, so power columns, gating
  // decisions and idle-period histograms stay bit-identical.
  events_ = RouterEvents{};
  activity_.record(0);
  if (power_hook_ != nullptr) power_hook_->on_cycle(events_);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::tick_idle_n(std::int64_t n) {
  rc_check_mutation("Router::tick_idle_n");
  LAIN_SHARD_PHASE(component);
  if (n <= 0) return;
  // A deferred run of n idle cycles, flushed in one call: the event
  // counters end empty (as after n tick_idle()s), the activity tap
  // absorbs the run in O(1) integer math, and the power hook accounts
  // the run in one call, bit-identical to n per-cycle calls.
  events_ = RouterEvents{};
  activity_.record_idle(n);
  if (power_hook_ != nullptr) power_hook_->on_idle_cycles(n);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::receive() {
  for (int p = 0; p < kNumPorts; ++p) {
    FlitChannel* ch = in_flits_[static_cast<size_t>(p)];
    if (ch == nullptr) continue;
    if (auto f = ch->receive()) {
      VcBuffer& vcb = vcs_[pv(p, f->vc)];
      vcb.push(*f);
      ++buffered_flits_;
      ++events_.flits_received;
      // A head arriving at an idle VC starts a new packet; a head
      // arriving behind a draining tail waits its turn (the VC flips
      // to kRouting when the tail leaves).
      if (f->is_head() && vcb.state == VcState::kIdle) {
        set_state(vcb, p, f->vc, VcState::kRouting);
        vcb.packet = f->packet;
      }
    }
  }
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::compute_route(VcBuffer& vcb,
                                                       int in_port,
                                                       int in_vc) {
  const Flit& head = vcb.front();
  // A non-head flit here means VC state tracking broke upstream —
  // an internal invariant, not a runtime condition (PR 5).
  assert(head.is_head() && "non-head flit at routing VC head");
  if (fault_table_ != nullptr) {
    // Fault-aware mode: a packet already on the escape VC stays in the
    // escape class at every downstream hop (one-way class transition
    // keeps the channel dependency graph acyclic); otherwise it
    // escapes only when its remaining dimension-order path is broken.
    const bool sticky_escape = in_port != port(Dir::kLocal) &&
                               in_vc == fault_table_->escape_vc();
    if (sticky_escape || !fault_table_->xy_ok(id_, head.dst)) {
      assert(fault_table_->reachable(id_, head.dst) &&
             "routing a packet toward an unreachable destination");
      vcb.out_port = port(fault_table_->escape_next(id_, head.dst));
      vcb.route_class = 1;
    } else {
      vcb.out_port = port(route_xy(id_, head.dst, ctx_));
      vcb.route_class = 0;
    }
  } else {
    vcb.out_port = port(route_xy(id_, head.dst, ctx_));
  }
  set_state(vcb, in_port, in_vc, VcState::kWaitingVc);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::set_state(VcBuffer& vcb, int port,
                                                   int vc, VcState s) {
  const Mask b = mask_bit(static_cast<int>(pv(port, vc)));
  routing_ &= ~b;
  waiting_ &= ~b;
  active_ &= ~b;
  switch (s) {
    case VcState::kIdle: break;
    case VcState::kRouting: routing_ |= b; break;
    case VcState::kWaitingVc: waiting_ |= b; break;
    case VcState::kActive: active_ |= b; break;
  }
  vcb.state = s;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::route_compute() {
  if (routing_ == 0) return;
  for (int p = 0; p < kNumPorts; ++p) {
    for (Mask m = port_vcs(routing_, p); m != 0; m &= m - 1) {
      const int v = lowest_bit(m);
      VcBuffer& vcb = vcs_[pv(p, v)];
      if (vcb.empty()) continue;
      compute_route(vcb, p, v);
    }
  }
}

bool Router::vc_admissible(int in_port, int in_vc, int out_port,
                           int out_vc) const {
  if (fault_table_ != nullptr) {
    if (out_port == port(Dir::kLocal)) return true;
    // Fault-aware mode: the highest VC is reserved for the escape
    // class (spanning-tree routing), the rest carry the normal class
    // (XY, with the dateline rule over the remaining VCs on a torus).
    const int esc = fault_table_->escape_vc();
    const VcBuffer& vcb = vcs_[pv(in_port, in_vc)];
    if (vcb.route_class != 0) return out_vc == esc;
    if (out_vc == esc) return false;
    if (ctx_.topology != TopologyKind::kTorus) return true;
    const int eff = num_vcs_ - 1;
    const int cur_class =
        (in_port == port(Dir::kLocal)) ? 0 : vc_class_of(in_vc, eff);
    const bool crossing =
        crosses_dateline(id_, static_cast<Dir>(out_port), ctx_);
    const int next_class = (cur_class == 1 || crossing) ? 1 : cur_class;
    return vc_class_of(out_vc, eff) == next_class;
  }
  if (ctx_.topology != TopologyKind::kTorus) return true;
  if (out_port == port(Dir::kLocal)) return true;
  // Dateline rule: class may only move 0 -> 1 at the wrap crossing and
  // never back.  Freshly injected packets (local input) start at 0.
  const int cur_class =
      (in_port == port(Dir::kLocal)) ? 0 : vc_class_of(in_vc, num_vcs_);
  const bool crossing =
      crosses_dateline(id_, static_cast<Dir>(out_port), ctx_);
  const int next_class = (cur_class == 1 || crossing) ? 1 : cur_class;
  return vc_class_of(out_vc, num_vcs_) == next_class;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::vc_allocate() {
  // Most cycles no VC is waiting for an output VC.
  if (waiting_ == 0) return;
  const int vcs = num_vcs_;
  bool any = false;
  for (int p = 0; p < kNumPorts; ++p) {
    for (Mask m = port_vcs(waiting_, p); m != 0; m &= m - 1) {
      const int v = lowest_bit(m);
      const VcBuffer& vcb = vcs_[pv(p, v)];
      Mask req = 0;
      for (Mask free = ~port_vcs(owned_, vcb.out_port) & low_mask(vcs);
           free != 0; free &= free - 1) {
        const int ov = lowest_bit(free);
        if (vc_admissible(p, v, vcb.out_port, ov)) {
          req |= mask_bit(vcb.out_port * vcs + ov);
        }
      }
      va_req_[pv(p, v)] = req;
      any |= req != 0;
    }
  }
  if (!any) return;
  vc_alloc_.allocate(va_req_.data(), va_grant_.data());
  const Mask waiting = waiting_;
  for (int p = 0; p < kNumPorts; ++p) {
    for (Mask m = port_vcs(waiting, p); m != 0; m &= m - 1) {
      const int v = lowest_bit(m);
      va_req_[pv(p, v)] = 0;
      const int g = va_grant_[pv(p, v)];
      if (g < 0) continue;
      VcBuffer& vcb = vcs_[pv(p, v)];
      vcb.out_vc = g % vcs;
      set_state(vcb, p, v, VcState::kActive);
      out_vc_owner_[static_cast<size_t>(g)] = static_cast<int>(pv(p, v));
      owned_ |= mask_bit(g);
      ++events_.arbitrations;
    }
  }
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::switch_traverse() {
  // Pick one candidate VC per input port among its active VCs with a
  // flit and a downstream credit, then allocate ports.
  bool demand = false;
  for (int p = 0; active_ != 0 && p < kNumPorts; ++p) {
    Mask cand = 0;
    for (Mask m = port_vcs(active_, p); m != 0; m &= m - 1) {
      const int v = lowest_bit(m);
      const VcBuffer& vcb = vcs_[pv(p, v)];
      if (!vcb.empty() && credits_[pv(vcb.out_port, vcb.out_vc)] > 0) {
        cand |= mask_bit(v);
      }
    }
    sa_req_[static_cast<size_t>(p)] = 0;
    if (cand == 0) continue;
    demand = true;
    const int v = sa_vc_pick_[static_cast<size_t>(p)].arbitrate(cand);
    chosen_vc_[static_cast<size_t>(p)] = v;
    sa_req_[static_cast<size_t>(p)] = mask_bit(vcs_[pv(p, v)].out_port);
  }

  events_.demand = demand;
  if (!demand) {
    activity_.record(0);
    return;
  }

  // Standby gating: a sleeping crossbar stalls traversal until awake.
  if (power_hook_ != nullptr && !power_hook_->xbar_ready()) {
    activity_.record(0);
    return;
  }

  sw_alloc_.allocate(sa_req_.data(), sa_grant_.data());
  int traversed = 0;
  for (int p = 0; p < kNumPorts; ++p) {
    const int out_port = sa_grant_[static_cast<size_t>(p)];
    if (out_port < 0) continue;
    const int v = chosen_vc_[static_cast<size_t>(p)];
    VcBuffer& vcb = vcs_[pv(p, v)];
    Flit f = vcb.pop();
    --buffered_flits_;
    const bool tail = f.is_tail();
    f.vc = static_cast<std::int8_t>(vcb.out_vc);
    ++f.hops;
    out_flits_[static_cast<size_t>(out_port)]->send(f);
    sent_ |= out_link_bit(out_port);
    if (trace_ != nullptr) {
      trace_->push({trace_->cycle(), f.packet, id_, FlitTraceKind::kRoute,
                    static_cast<std::int8_t>(out_port)});
    }
    --credits_[pv(out_port, vcb.out_vc)];
    // Return a credit for the slot just freed upstream.
    if (out_credits_[static_cast<size_t>(p)] != nullptr) {
      out_credits_[static_cast<size_t>(p)]->send(Credit{v});
      sent_ |= in_link_bit(p);
    }
    ++events_.arbitrations;
    ++traversed;
    if (out_port != port(Dir::kLocal)) ++events_.link_flits;
    if (tail) {
      out_vc_owner_[pv(vcb.out_port, vcb.out_vc)] = -1;
      owned_ &= ~mask_bit(static_cast<int>(pv(vcb.out_port, vcb.out_vc)));
      vcb.out_port = -1;
      vcb.out_vc = -1;
      vcb.route_class = 0;
      // Worms are contiguous per VC, so the next resident (if any) is
      // the following packet's head.
      set_state(vcb, p, v, vcb.empty() ? VcState::kIdle : VcState::kRouting);
      vcb.packet = vcb.empty() ? -1 : vcb.front().packet;
    }
  }
  events_.flits_sent = traversed;
  activity_.record(traversed);
}

// --- Fault surgery (stop-the-world, kernel thread, between steps;
// deliberately no racecheck phase/ownership checks) -------------------

PacketId Router::fault_out_vc_owner_packet(int out_port, int vc) const {
  const int owner = out_vc_owner_[pv(out_port, vc)];
  if (owner < 0) return -1;
  return vcs_[static_cast<size_t>(owner)].packet;
}

void Router::fault_for_each_flit(
    const std::function<void(const Flit&)>& fn) const {
  for (int p = 0; p < kNumPorts; ++p) {
    for (int v = 0; v < num_vcs_; ++v) {
      const VcBuffer& vcb = vcs_[pv(p, v)];
      for (int i = 0; i < vcb.size(); ++i) fn(vcb.peek(i));
    }
  }
}

int Router::fault_purge(const std::function<bool(PacketId)>& lost) {
  int total = 0;
  for (int p = 0; p < kNumPorts; ++p) {
    for (int v = 0; v < num_vcs_; ++v) {
      VcBuffer& vcb = vcs_[pv(p, v)];
      const bool resident_lost = vcb.packet >= 0 && lost(vcb.packet);
      const int removed = vcb.remove_packets(lost);
      total += removed;
      buffered_flits_ -= removed;
      if (!resident_lost) continue;
      // The packet that owned this VC's head of line is gone: release
      // any granted output VC and hand the line to the next worm (its
      // head — worms are contiguous per VC).
      if (vcb.state == VcState::kActive) {
        out_vc_owner_[pv(vcb.out_port, vcb.out_vc)] = -1;
        owned_ &= ~mask_bit(static_cast<int>(pv(vcb.out_port, vcb.out_vc)));
      }
      vcb.out_port = -1;
      vcb.out_vc = -1;
      vcb.route_class = 0;
      set_state(vcb, p, v, vcb.empty() ? VcState::kIdle : VcState::kRouting);
      vcb.packet = vcb.empty() ? -1 : vcb.front().packet;
    }
  }
  return total;
}

void Router::fault_reroute_pending() {
  for (int p = 0; p < kNumPorts; ++p) {
    for (Mask m = port_vcs(waiting_, p); m != 0; m &= m - 1) {
      const int v = lowest_bit(m);
      compute_route(vcs_[pv(p, v)], p, v);
    }
  }
}

void Router::fault_set_credit(int out_port, int vc, int n) {
  credits_[pv(out_port, vc)] = n;
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Router::tick() {
  rc_check_mutation("Router::tick");
  LAIN_SHARD_PHASE(component);
  events_ = RouterEvents{};
  sent_ = 0;
  receive();
  route_compute();
  vc_allocate();
  switch_traverse();
  if (power_hook_ != nullptr) power_hook_->on_cycle(events_);
}

}  // namespace lain::noc
