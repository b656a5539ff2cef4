// router.hpp — input-queued virtual-channel wormhole router.
//
// Four logical stages per cycle, in the classic order:
//   RC  — route compute for head flits at VC queue heads (XY),
//   VA  — separable VC allocation (input round-robin, output matrix),
//   SA  — separable switch allocation over ports,
//   ST  — switch traversal onto the output channel, credit return.
//
// Credit-based flow control: a flit leaves only if the downstream VC
// has a free slot; credits travel back on dedicated channels, which
// add each returned credit to this router's counter in the exchange
// phase (see CreditChannel).  The torus configuration uses dateline VC
// classes (lower half before the wrap crossing, upper half after).
//
// The power hook lets core/noc_integration gate the crossbar: when the
// attached sleep controller holds the switch in standby, ST stalls
// until the wake-up latency is paid, exactly like the paper's
// microarchitecture would.
//
// Hot-path contract: the per-cycle pipeline performs no heap
// allocation.  Input VCs are numbered port*vcs+vc, and the router
// keeps one 64-bit Mask of the VCs in each non-idle state (routing,
// waiting for an output VC, active) plus one of the owned output VCs,
// updated at every state transition.  RC, VA and SA visit only the
// VCs their mask names, and VA/SA requests are built as masks (one per
// requester) in preallocated members the allocators read in place; a
// Mask bounds a router to 5 ports x 12 VCs (SimConfig::validate), so
// the per-VC tables are fixed arrays of that size, and every input
// VC's ring is a slice of one flit block.
// A router with nothing to do need not run the pipeline: quiescent()
// is an O(ports) probe of the inbound flit pipes, and tick_idle()
// collapses one cycle to the bookkeeping every downstream consumer
// still needs (events, crossbar activity, power hook) — bit-identical
// to what the full pipeline would have done.  The event-driven kernel
// does not tick an idle router at all: tick_idle_n(n) accounts a
// whole deferred run of n idle cycles at once.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/contracts.hpp"
#include "noc/allocator.hpp"
#include "noc/buffer.hpp"
#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/crossbar_sw.hpp"
#include "noc/trace.hpp"

namespace lain::noc {

class FaultRoutingTable;

// Events the router reports each cycle (consumed by power models).
struct RouterEvents {
  int flits_received = 0;
  int flits_sent = 0;       // crossbar traversals
  int link_flits = 0;       // flits sent to non-local ports
  int arbitrations = 0;
  bool demand = false;      // any flit wanted the switch this cycle
};

// Interface used to gate the switch-traversal stage.
class PowerHook {
 public:
  virtual ~PowerHook() = default;
  // May the crossbar traverse flits this cycle?
  virtual bool xbar_ready() = 0;
  // Called at the end of every router cycle with the event counts.
  virtual void on_cycle(const RouterEvents& ev) = 0;
  // Batched idle notification for cycle skipping: account `n`
  // consecutive event-free cycles.  The default replays on_cycle with
  // empty events n times, so any hook is bit-identical by
  // construction.  An override must leave the hook exactly as that
  // replay would, bit for bit; RouterPowerHook's batch adds each
  // account's per-cycle constant once per cycle, in order.
  virtual void on_idle_cycles(std::int64_t n) {
    const RouterEvents empty{};
    for (std::int64_t i = 0; i < n; ++i) on_cycle(empty);
  }
};

class Router {
 public:
  // The config is validated once at fabric construction (Network /
  // SimConfig::validate), not per router.
  Router(NodeId id, const SimConfig& cfg);
  // Never copied: a copy would consume the same channels, and its VC
  // views would point into the original's blocks.  It moves only so
  // std::vector can hold it; the network reserves its routers before
  // wiring, so none moves after.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;
  Router(Router&&) = default;
  Router& operator=(Router&&) = delete;

  NodeId id() const { return id_; }

  // Wiring (non-owning); all five ports must be connected before use.
  // connect_output points `credits_in` at this router's credit
  // counters for port d, so the channel applies returned credits
  // directly.
  void connect_input(Dir d, FlitChannel* flits_in, CreditChannel* credits_out);
  void connect_output(Dir d, FlitChannel* flits_out, CreditChannel* credits_in);

  void set_power_hook(PowerHook* hook) { power_hook_ = hook; }

  // Attaches the owning shard's flit-trace ring (nullptr detaches).
  // When set, every switch traversal pushes a kRoute event; the
  // ring's cycle stamp is maintained by the kernel's component phase.
  void set_flit_trace(FlitTraceRing* ring) { trace_ = ring; }

  // One simulation cycle.  Ejected flits (to the local port) are sent
  // on the local output channel like any other port.
  void tick();

  // The links the last tick() sent on (see SendMask): the event kernel
  // exchanges only those.
  SendMask sent_links() const { return sent_; }

  // True when this cycle's full pipeline would provably be a no-op:
  // no buffered flits, no owned output VCs, and nothing in any
  // inbound flit pipe.  A returned credit does not count: the exchange
  // phase already added it to the counter.  Reads only router-local
  // state and the consumer side of the inbound flit channels, so it is
  // safe (and deterministic) to evaluate during a sharded component
  // phase while upstream shards stage sends concurrently.
  bool quiescent() const;

  // The O(1) collapsed cycle for a quiescent router: resets the event
  // counters, records an idle crossbar cycle (so idle-run histograms
  // and gating decisions advance exactly as under tick()) and fires
  // the power hook with empty events.  Must only be called when
  // quiescent(); checked in Debug builds.
  void tick_idle();

  // Batched idle accounting for the event-stepping kernel: account n
  // consecutive idle cycles exactly as n tick_idle() calls would —
  // the crossbar activity absorbs the whole run in O(1) and the power
  // hook gets one on_idle_cycles(n), which must equal n empty
  // on_cycle() calls bit for bit (see PowerHook::on_idle_cycles).
  // Unlike tick_idle() this is also used retroactively: the kernel
  // may defer a sleeping router's accounting and flush it here just
  // before the next full tick().  n == 0 is a no-op.
  void tick_idle_n(std::int64_t n);

  const RouterEvents& last_events() const { return events_; }
  const CrossbarActivity& activity() const { return activity_; }
  int credits(int out_port, int vc) const {
    if (out_port < 0 || out_port >= kNumPorts || vc < 0 || vc >= num_vcs_) {
      throw std::out_of_range("Router::credits: no such output VC");
    }
    return credits_[pv(out_port, vc)];
  }
  const InputPort& input(int port) const {
    return inputs_.at(static_cast<size_t>(port));
  }
  // Total flits resident in this router's input buffers (tracked
  // incrementally; O(1)).
  int occupancy() const { return buffered_flits_; }

  // --- Fault-aware routing & fault surgery ---------------------------
  //
  // When a FaultRoutingTable is attached (faults enabled), route
  // compute becomes fault-aware: a head whose whole remaining
  // dimension-order path is alive routes XY on the normal VCs, anything
  // else takes the reserved escape VC along the alive spanning tree.
  // A null table keeps the plain zero-cost XY path bit-identical to
  // builds without faults.
  //
  // The fault_* mutators run stop-the-world on the kernel thread
  // between steps (every shard parked at a barrier — the
  // flush_deferred_idle precedent), so they deliberately carry no
  // racecheck phase/ownership checks.
  void set_fault_table(const FaultRoutingTable* table) {
    fault_table_ = table;
  }

  // Packet owning the given output VC (via its input-side worm), or -1.
  PacketId fault_out_vc_owner_packet(int out_port, int vc) const;
  // Visits every flit buffered at any input VC.
  void fault_for_each_flit(
      const std::function<void(const Flit&)>& fn) const;
  // Removes every buffered flit of a lost packet and repairs the VC
  // state machines (ownership release, re-route of exposed heads).
  // Returns the number of flits removed.
  int fault_purge(const std::function<bool(PacketId)>& lost);
  // Re-routes every head still waiting for an output VC against the
  // current fault table (stale routes toward dead ports would stall
  // forever behind zeroed credits).
  void fault_reroute_pending();
  // Credit repair: overwrites the free-slot count for one output VC.
  void fault_set_credit(int out_port, int vc, int n);

#if LAIN_RACECHECK
  // Tags this router with its owning shard from the PartitionPlan;
  // tick()/tick_idle() then abort if any other shard (or the exchange
  // phase) mutates it.
  void rc_set_owner(int shard) {
    rc_tag_.kind = "router";
    rc_tag_.tile = static_cast<int>(id_);
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
#else
  void rc_check_mutation(const char*) const {}
#endif

  void receive();
  void route_compute();
  // Shared by route_compute and fault_reroute_pending: computes
  // out_port and route_class for the head at this VC.
  void compute_route(VcBuffer& vcb, int in_port, int in_vc);
  void vc_allocate();
  void switch_traverse();
  bool vc_admissible(int in_port, int in_vc, int out_port, int out_vc) const;
  // Moves input VC (port, vc) to `s`, keeping the state masks in step.
  void set_state(VcBuffer& vcb, int port, int vc, VcState s);
  size_t pv(int port, int vc) const {
    return static_cast<size_t>(port) * static_cast<size_t>(num_vcs_) +
           static_cast<size_t>(vc);
  }
  // The VCs of `port` within a port*vcs+vc mask, as a per-VC mask.
  Mask port_vcs(Mask m, int port) const {
    return (m >> (port * num_vcs_)) & low_mask(num_vcs_);
  }

  // Per-VC tables are indexed port*vcs+vc (pv); only the first
  // kNumPorts * num_vcs_ entries are used.
  static constexpr std::size_t kMaxPortVcs =
      static_cast<std::size_t>(kNumPorts) * kMaxVcs;
  template <typename T>
  using PerPortVc = std::array<T, kMaxPortVcs>;

  // Members are ordered by how often a cycle touches them: the idle
  // probe and the pipeline's scalars first, the per-VC tables after,
  // the allocators' state and the cold views last.
  NodeId id_;
  int num_vcs_;  // VCs per port
  int depth_;    // flits per VC buffer
  int buffered_flits_ = 0;  // flits across all input VC buffers
  SendMask sent_ = 0;       // links sent on this tick (sent_links)
  // Input VCs (bit port*vcs+vc) by state; kIdle VCs are in none.
  Mask routing_ = 0;  // kRouting: head awaits route compute
  Mask waiting_ = 0;  // kWaitingVc: routed, awaits an output VC
  Mask active_ = 0;   // kActive: owns an output VC
  // Output VCs (bit port*vcs+vc) owned by an input VC.
  Mask owned_ = 0;
  std::array<FlitChannel*, kNumPorts> in_flits_{};
  PowerHook* power_hook_ = nullptr;
  RouterEvents events_;
  CrossbarActivity activity_;
  std::array<FlitChannel*, kNumPorts> out_flits_{};
  std::array<CreditChannel*, kNumPorts> out_credits_{};
  const FaultRoutingTable* fault_table_ = nullptr;
  FlitTraceRing* trace_ = nullptr;
  RouteContext ctx_;

  // Input VC pv(port, vc) is vcs_[pv], a ring over its depth_-slot
  // slice of flit_slots_.
  std::vector<VcBuffer> vcs_;
  std::vector<Flit> flit_slots_;

  // Cycle-reused pipeline scratch (the steady-state tick never touches
  // the heap).
  std::array<Mask, kNumPorts> sa_req_{};     // per port: wanted output
  std::array<int, kNumPorts> sa_grant_{};    // per port: granted output
  std::array<int, kNumPorts> chosen_vc_{};   // SA stage-1 winner per port
  std::array<RoundRobinArbiter, kNumPorts> sa_vc_pick_;  // per-input VC
                                                         // selector
  // credits_[port*vcs+vc]: free downstream slots.  Each output's
  // credit channel adds returned credits to its port's slice.
  PerPortVc<int> credits_{};
  // out_vc_owner_[port*vcs+vc]: owning (input port * vcs + vc), or -1.
  PerPortVc<int> out_vc_owner_{};
  PerPortVc<Mask> va_req_{};  // per input VC: wanted output VCs; zero
                              // outside vc_allocate()
  PerPortVc<int> va_grant_{};  // per input VC: output VC

  SeparableAllocator vc_alloc_;
  SeparableAllocator sw_alloc_;
  std::array<InputPort, kNumPorts> inputs_;  // views over vcs_, by port
#if LAIN_RACECHECK
  contracts::OwnerTag rc_tag_;
#endif
};

}  // namespace lain::noc
