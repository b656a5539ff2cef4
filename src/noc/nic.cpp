#include "noc/nic.hpp"

#include <algorithm>
#include <cassert>

namespace lain::noc {

Nic::Nic(NodeId node, const SimConfig& cfg)
    : node_(node),
      vcs_(cfg.vcs),
      depth_(cfg.vc_depth_flits),
      packet_length_(cfg.packet_length_flits) {
  std::fill_n(credits_.begin(), cfg.vcs, cfg.vc_depth_flits);
  // The eject channel delivers at most one tail per cycle in steady
  // state, so a small reservation keeps tick() allocation-free.
  completions_.reserve(8);
}

void Nic::connect(FlitChannel* inject_out, CreditChannel* credit_in,
                  FlitChannel* eject_in, CreditChannel* credit_out) {
  inject_out_ = inject_out;
  credit_in->connect(credits_.data(), depth_);
  eject_in_ = eject_in;
  credit_out_ = credit_out;
}

void Nic::source_packet(NodeId dst, Cycle now, PacketId id) {
  source_packet(dst, now, id, now);
}

void Nic::source_packet(NodeId dst, Cycle now, PacketId id, Cycle created) {
  (void)now;
  const int len = packet_length_;
  for (int i = 0; i < len; ++i) {
    Flit f;
    if (len == 1) {
      f.type = FlitType::kHeadTail;
    } else if (i == 0) {
      f.type = FlitType::kHead;
    } else if (i == len - 1) {
      f.type = FlitType::kTail;
    } else {
      f.type = FlitType::kBody;
    }
    f.packet = id;
    f.src = node_;
    f.dst = dst;
    f.created = created;
    queue_.push_back(f);
  }
}

LAIN_HOT_PATH LAIN_NO_ALLOC void Nic::tick(Cycle now) {
  rc_check_mutation("Nic::tick");
  LAIN_SHARD_PHASE(component);
  sent_ = 0;
  // A killed NIC (router fault) never acts again; its pipes and queue
  // were purged by the fault controller when the router died.  A live
  // quiescent NIC takes the idle fast path: the full path below would
  // be a pure no-op.
  if (quiescent()) return;

  completions_.clear();

  // Eject the arriving flit (infinite sink: credit returned
  // immediately).
  if (auto f = eject_in_->receive()) {
    credit_out_->send(Credit{f->vc});
    sent_ |= out_link_bit(port(Dir::kLocal));
    ++flits_ejected_;
    if (f->is_tail()) {
      ++packets_ejected_;
      // LAIN_LINT_ALLOW(no-alloc): capacity reserved in the
      // constructor; steady state sees at most one tail per cycle.
      completions_.push_back(Ejection{f->packet, f->src, f->created,
                                      f->injected, now, f->hops});
    }
  }

  // Inject at most one flit per cycle.
  if (queue_.empty()) return;
  Flit& f = queue_.front();
  int vc = -1;
  if (f.is_head()) {
    // New packet: pick a VC with a full buffer's worth of headroom to
    // avoid interleaving packets on one VC (round-robin start).
    for (int i = 0; i < vcs_; ++i) {
      const int cand = (next_vc_ + i) % vcs_;
      if (credits_[static_cast<size_t>(cand)] > 0) {
        vc = cand;
        break;
      }
    }
    if (vc < 0) return;  // no credit anywhere
    next_vc_ = (vc + 1) % vcs_;
    open_vc_ = vc;
  } else {
    vc = open_vc_;
    // A body flit with no open VC means packet segmentation broke —
    // an internal invariant, not a runtime condition (PR 5).
    assert(vc >= 0 && "body flit without open VC");
    if (credits_[static_cast<size_t>(vc)] <= 0) return;  // stall
  }
  f.vc = static_cast<std::int8_t>(vc);
  f.injected = now;
  inject_out_->send(f);
  sent_ |= in_link_bit(port(Dir::kLocal));
  --credits_[static_cast<size_t>(vc)];
  ++flits_injected_;
  if (f.is_tail()) open_vc_ = -1;
  queue_.pop_front();
}

// --- Fault surgery (stop-the-world, kernel thread, between steps;
// deliberately no racecheck phase/ownership checks) -------------------

void Nic::fault_kill() {
  killed_ = true;
  open_vc_ = -1;
  // Completions from the last tick were already consumed by the
  // kernel's collect pass in that same cycle; queued flits stay for
  // the controller's loss sweep and are purged by fault_purge.
  completions_.clear();
}

void Nic::fault_for_each_queued(
    const std::function<void(const Flit&)>& fn) const {
  for (const Flit& f : queue_) fn(f);
}

int Nic::fault_purge(const std::function<bool(PacketId)>& lost) {
  // open_vc_ >= 0 means the packet being injected still has flits
  // (at least its tail) at the queue front, so the front identifies it.
  PacketId open_id = -1;
  if (open_vc_ >= 0 && !queue_.empty()) open_id = queue_.front().packet;
  int removed = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (lost(it->packet)) {
      it = queue_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (open_id >= 0 && lost(open_id)) open_vc_ = -1;
  return removed;
}

void Nic::fault_set_credit(int vc, int n) {
  credits_[static_cast<size_t>(vc)] = n;
}

}  // namespace lain::noc
