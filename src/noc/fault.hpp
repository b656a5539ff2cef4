// fault.hpp — deterministic fault injection and self-healing routing.
//
// Three pieces, all driven by the kernel between steps (stop-the-world:
// every shard parked at a barrier, no phase in flight):
//
//   FaultPlan          A seed-derived schedule of fault events (link
//                      kills, transient link flaps, router kills),
//                      validated against the wired Network at build
//                      time.  A plan whose worst state (every scheduled
//                      fault applied at once) disconnects the fabric is
//                      rejected with a diagnostic unless
//                      cfg.fault.allow_partition accepts it, in which
//                      case the unreachable pairs are accounted instead.
//
//   FaultRoutingTable  The self-healing routing state, recomputed at
//                      each reconfiguration: xy_ok(here, dst) says the
//                      whole remaining dimension-order path is alive
//                      (the packet may use the normal VCs), and
//                      escape_next(here, dst) gives the next hop on a
//                      BFS spanning tree of the alive graph, used on
//                      the reserved escape VC (vcs - 1).  Tree (up/
//                      down) routing on the escape class is acyclic,
//                      XY on the normal class is dimension-ordered,
//                      and the class transition is one-way (normal ->
//                      escape, never back), so the combined channel
//                      dependency graph stays deadlock-free.
//
//   FaultController    Owns the alive state, applies due events
//                      (surgery: purge lost worms, repair credits,
//                      reroute pending heads), runs the bounded-
//                      backoff retransmit queue, and reports every
//                      consequence back to the kernel for stats
//                      attribution and telemetry.
//
// Everything here is deterministic: fault selection and retransmit
// jitter come from dedicated mix_seed streams, loss sets are collected
// in fixed traversal order, and the controller runs on the calling
// thread — so a degraded run stays bit-identical at any shard count.

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/rng.hpp"

namespace lain::noc {

class Network;

enum class FaultKind : std::uint8_t {
  kLinkDown,    // permanent kill of both directions of a physical link
  kLinkUp,      // transient repair (scheduled when fault.repair > 0)
  kRouterDown,  // router + NIC kill; every incident link dies with it
};

const char* fault_kind_name(FaultKind k);

// One scheduled fault.  For link events `link` is the canonical
// (lower-index) directed channel of the physical link and node_a/node_b
// its endpoints; for router events node_a is the victim.
struct FaultEvent {
  Cycle at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  int link = -1;
  NodeId node_a = kInvalidNode;
  NodeId node_b = kInvalidNode;
};

// What one applied event did to the fabric (telemetry + tests).
struct FaultReport {
  Cycle at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  NodeId node_a = kInvalidNode;
  NodeId node_b = kInvalidNode;
  int packets_lost = 0;           // distinct packets purged
  int flits_purged = 0;           // physical flits removed (fabric + queues)
  int retransmits_scheduled = 0;  // losses with a live route back
  int packets_abandoned = 0;      // losses with no route (allow_partition)
  std::int64_t unreachable_pairs = 0;  // fabric-wide, after this event
};

// One purged packet, for the kernel's stats attribution (counted in
// the src node's shard, gated on `created` in the measurement window).
struct LostPacket {
  PacketId packet = -1;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Cycle created = 0;
  bool retransmit = false;  // scheduled for retransmission (else abandoned)
};

// A retransmission reaching its due cycle (the kernel re-sources it at
// the src NIC with the original created stamp), or abandoned at fire
// time because the destination became unreachable in the meantime.
struct RetxDue {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketId packet = -1;
  Cycle created = 0;
  int attempt = 0;
};

// Seed-derived fault schedule.  Throws std::invalid_argument on an
// impossible request (more link faults than physical links) and
// std::runtime_error on a disconnecting plan without allow_partition.
class FaultPlan {
 public:
  static FaultPlan build(const SimConfig& cfg, const Network& net);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

// The self-healing routing state; routers hold a const pointer and
// consult it at route compute / VC admission when faults are enabled
// (a null pointer keeps the zero-cost plain-XY path).
class FaultRoutingTable {
 public:
  explicit FaultRoutingTable(const SimConfig& cfg);

  // The reserved escape VC (always the highest index).
  int escape_vc() const { return escape_vc_; }

  // Whole remaining dimension-order path from here to dst alive?
  bool xy_ok(NodeId here, NodeId dst) const {
    return xy_ok_[idx(here, dst)] != 0;
  }
  // Next hop on the escape spanning tree (kLocal when here == dst).
  // Only valid when reachable(here, dst).
  Dir escape_next(NodeId here, NodeId dst) const {
    return static_cast<Dir>(esc_next_[idx(here, dst)]);
  }
  bool reachable(NodeId here, NodeId dst) const {
    return esc_next_[idx(here, dst)] >= 0;
  }
  std::int64_t unreachable_pairs() const { return unreachable_pairs_; }

  // Recomputes both tables from the current alive sets (indexed by
  // link / node).  O(N^2 * diameter); runs only at reconfigurations.
  void rebuild(const Network& net, const std::vector<std::uint8_t>& link_alive,
               const std::vector<std::uint8_t>& node_alive);

 private:
  std::size_t idx(NodeId here, NodeId dst) const {
    return static_cast<std::size_t>(here) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(dst);
  }

  RouteContext ctx_;
  int n_ = 0;
  int escape_vc_ = 0;
  std::vector<std::uint8_t> xy_ok_;   // n*n
  std::vector<std::int8_t> esc_next_; // n*n: Dir, or -1 when unreachable
  std::int64_t unreachable_pairs_ = 0;
  // Spanning-forest scratch, reused across rebuilds.
  std::vector<NodeId> parent_;
  std::vector<int> depth_;
  std::vector<std::int8_t> up_dir_;  // dir at node toward its parent
  std::vector<int> comp_;
  std::vector<NodeId> bfs_queue_;
};

// Applies the plan to the live fabric and runs the retransmit queue.
// Owned by SimKernel; every method runs on the calling thread between
// steps (the flush_deferred_idle precedent).
class FaultController {
 public:
  FaultController(const SimConfig& cfg, Network& net, FaultPlan plan);

  const FaultRoutingTable& table() const { return table_; }
  const FaultRoutingTable* table_ptr() const { return &table_; }
  const FaultPlan& plan() const { return plan_; }

  // Earliest cycle at which fault work is due (next scheduled event or
  // retransmit), or kNoDue.  The event-driven kernel clamps its skip
  // cap to this so no fault cycle is jumped.
  static constexpr Cycle kNoDue = std::numeric_limits<Cycle>::max();
  Cycle next_due() const;
  bool due(Cycle now) const { return next_due() <= now; }

  bool node_alive(NodeId n) const {
    return node_alive_[static_cast<std::size_t>(n)] != 0;
  }
  // Whether link `link` carries traffic now (killed links, and every
  // link of a killed router, are dead until a repair).
  bool link_alive(int link) const {
    return link_alive_[static_cast<std::size_t>(link)] != 0;
  }
  // Injection gate: may a packet sourced at src reach dst right now?
  bool dst_reachable(NodeId src, NodeId dst) const {
    return table_.reachable(src, dst);
  }
  std::int64_t unreachable_pairs() const {
    return table_.unreachable_pairs();
  }

  struct CycleOutcome {
    std::vector<FaultReport> reports;     // one per applied event
    std::vector<LostPacket> lost;         // every purged packet
    std::vector<RetxDue> retransmit_now;  // re-source at the src NIC now
    std::vector<RetxDue> abandoned_now;   // retx abandoned at fire time
    bool reconfigured = false;            // routing table was rebuilt
  };
  // Processes everything due at `now`: applies scheduled events one at
  // a time (surgery + reroute + credit repair + per-event report) and
  // pops due retransmissions.
  CycleOutcome process(Cycle now);

 private:
  struct Retx {
    Cycle due = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    PacketId packet = -1;
    Cycle created = 0;
    int attempt = 0;
  };
  struct LostMeta {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Cycle created = 0;
  };

  void apply_event(const FaultEvent& e, Cycle now, CycleOutcome& out);
  void kill_link_pair(int canonical);
  // Fabric-wide sweep: collects every packet with a flit at a dead
  // location or with an unreachable destination into lost_ids_ (with
  // metadata), after the structural ids are already seeded.
  void sweep_lost();
  void purge_lost(FaultReport& rep);
  void recompute_credits();
  void schedule_retx(Cycle now, PacketId id, NodeId src, NodeId dst,
                     Cycle created, FaultReport& rep, CycleOutcome& out);

  SimConfig cfg_;
  Network& net_;
  FaultPlan plan_;
  std::size_t cursor_ = 0;  // next unapplied plan event
  FaultRoutingTable table_;
  std::vector<std::uint8_t> link_alive_;
  std::vector<std::uint8_t> node_alive_;
  std::vector<int> inj_link_;  // per node: NIC->router injection link
  std::vector<int> ej_link_;   // per node: router->NIC ejection link
  std::vector<Retx> retx_;     // sorted by (due, src, packet)
  std::unordered_map<PacketId, int> retx_attempts_;
  Rng retx_rng_;
  // Per-event scratch (insertion order is the deterministic traversal
  // order; membership via the set).
  std::unordered_set<PacketId> lost_ids_;
  std::vector<PacketId> lost_order_;
  std::unordered_map<PacketId, LostMeta> lost_meta_;
};

}  // namespace lain::noc
