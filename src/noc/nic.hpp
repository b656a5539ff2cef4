// nic.hpp — network interface: injection queues and ejection sink.
//
// The NIC sits on the router's local port: it segments generated
// packets into flits, injects them under credit flow control, and
// sinks ejected flits (returning credits immediately — an infinite
// ejection buffer, the standard BookSim assumption).
//
// tick() takes an O(1) early-out when the NIC is quiescent (empty
// source queue, no pending completions, empty ejection pipe), so an
// idle node costs a handful of loads per cycle.  Returned credits need
// no tick: the exchange phase adds them to the NIC's counters (see
// CreditChannel).

#pragma once

#include <array>
#include <deque>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/contracts.hpp"
#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/stats.hpp"

namespace lain::noc {

class Nic {
 public:
  Nic(NodeId node, const SimConfig& cfg);
  // Never copied: a copy would drive the same channels.  Like Router,
  // it moves only so std::vector can hold it, and the network reserves
  // its NICs before wiring.
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;
  Nic(Nic&&) = default;
  Nic& operator=(Nic&&) = delete;

  // Wiring: inject_out feeds the router's local input; credit_in
  // returns its credits, straight into this NIC's counters.  eject_in
  // delivers flits from the router's local output; credit_out
  // acknowledges them.
  void connect(FlitChannel* inject_out, CreditChannel* credit_in,
               FlitChannel* eject_in, CreditChannel* credit_out);

  // Queues a packet for injection, its flits stamped `created`: the
  // current cycle for a new packet, the original creation cycle for a
  // retransmission, so end-to-end latency spans every attempt.
  void source_packet(NodeId dst, Cycle created, PacketId id);

  // One cycle: eject the arriving flit, inject at most one flit.
  void tick(Cycle now);

  // The links the last tick() sent on, in the router's numbering (see
  // SendMask): the injection link for a flit, the ejection link for a
  // credit.
  SendMask sent_links() const { return sent_; }

  // True when tick() takes its O(1) early-out: a killed NIC, or an
  // empty source queue, no stale completions and an empty ejection
  // pipe.  Reads only NIC-local state and the consumer side of the
  // ejection channel (same safety argument as Router::quiescent()), so
  // it is safe and deterministic under the sharded kernel, and the
  // event-driven kernel uses it to decide whether the NIC stays on the
  // active list.
  bool quiescent() const {
    return killed_ || (queue_.empty() && completions_.empty() &&
                       !eject_in_->consumer_pending());
  }

  // --- Fault surgery (stop-the-world, kernel thread, between steps;
  // deliberately no racecheck phase/ownership checks) -----------------

  // Router-kill: this NIC stops ticking forever (its queued packets
  // are collected and purged by the controller's sweep, not here).
  void fault_kill();
  bool fault_killed() const { return killed_; }
  // Visits every flit still in the source queue.
  void fault_for_each_queued(const std::function<void(const Flit&)>& fn) const;
  // Removes every queued flit of a lost packet; resets the open-VC
  // latch if the packet being injected was lost.  Returns the removed
  // count.
  int fault_purge(const std::function<bool(PacketId)>& lost);
  // Credit repair: overwrites the free-slot count toward the router.
  void fault_set_credit(int vc, int n);
  // Free slots in the router's local input VC `vc`, as this NIC counts
  // them.
  int credits(int vc) const {
    if (vc < 0 || vc >= vcs_) {
      throw std::out_of_range("Nic::credits: no such VC");
    }
    return credits_[static_cast<size_t>(vc)];
  }

  // Observability.
  int source_queue_flits() const { return static_cast<int>(queue_.size()); }
  std::int64_t flits_injected() const { return flits_injected_; }
  std::int64_t flits_ejected() const { return flits_ejected_; }
  std::int64_t packets_ejected() const { return packets_ejected_; }

  // Per-packet completion callback (tail ejected).
  struct Ejection {
    PacketId packet;
    NodeId src;
    Cycle created;
    Cycle injected;
    Cycle ejected;
    int hops;
  };
  // Completions observed this tick (cleared on the next tick).
  const std::vector<Ejection>& completions() const { return completions_; }

#if LAIN_RACECHECK
  // Tags this NIC with its owning shard from the PartitionPlan.
  void rc_set_owner(int shard) {
    rc_tag_.kind = "nic";
    rc_tag_.tile = static_cast<int>(node_);
    rc_tag_.owner_shard = shard;
  }
#else
  void rc_set_owner(int) {}
#endif

 private:
#if LAIN_RACECHECK
  void rc_check_mutation(const char* op) const {
    contracts::check_component_mutation(rc_tag_, op);
  }
  contracts::OwnerTag rc_tag_;
#else
  void rc_check_mutation(const char*) const {}
#endif

  // What tick()'s idle early-out reads comes first.
  bool killed_ = false;  // router-kill: never ticks again
  SendMask sent_ = 0;    // links sent on this tick (sent_links)
  NodeId node_;
  std::deque<Flit> queue_;  // flit-segmented source queue
  std::vector<Ejection> completions_;
  FlitChannel* eject_in_ = nullptr;
  FlitChannel* inject_out_ = nullptr;
  CreditChannel* credit_out_ = nullptr;
  int vcs_;
  int depth_;          // flits per router VC buffer
  int packet_length_;  // flits per packet
  int next_vc_ = 0;
  int open_vc_ = -1;  // VC carrying the packet currently being injected
  // Per-VC credits toward the router; the injection link's credit
  // channel adds returned credits here.
  std::array<int, kMaxVcs> credits_{};
  std::int64_t flits_injected_ = 0;
  std::int64_t flits_ejected_ = 0;
  std::int64_t packets_ejected_ = 0;
};

}  // namespace lain::noc
