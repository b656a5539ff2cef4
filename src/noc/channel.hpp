// channel.hpp — one-cycle flit and credit channels.
//
// A channel models link traversal in one cycle: an item sent at cycle
// t reaches the receiver at t + 1.  Channels are advanced once per
// simulator cycle by the kernel, in the exchange phase of the shard
// that consumes them.
//
// Both channel kinds are split for the two-phase parallel kernel:
// send() only writes the producer-side staging slot, and tick() — the
// exchange phase of the consumer's shard — hands the staged item on.
// With component ticks (sends and receives) and channel ticks
// separated by a barrier, a channel crossing a shard boundary needs no
// locks: its producer and consumer never touch the same member in the
// same phase.  Under LAIN_RACECHECK that split is enforced: every
// access checks the calling shard and phase against the channel's
// owners (see core/contracts.hpp).
//
// A flit channel is a mailbox of two inline slots, not a queue: one
// flit is admitted per cycle, and every consumer drains its inbound
// flit channels in the cycle after an admission, so the pipe slot is
// always free when the next flit arrives (asserted in Debug/sanitizer
// builds) and the exchange phase never touches the heap.
//
// A credit channel has no pipe: it is a staging slot plus a pointer to
// its consumer's per-VC credit counters, and tick() adds the staged
// credit straight to its counter.  Nothing reads those counters between
// the exchange phase and the consumer's next tick, so the consumer
// sees what taking the credit from a pipe at the start of that tick
// would have given it — without a wake-up or a poll.

#pragma once

#include <cassert>
#include <optional>

#include "core/contracts.hpp"
#include "noc/flit.hpp"

namespace lain::noc {

// Racecheck ownership shared by both channel kinds.
class ChannelOwners {
 public:
#if LAIN_RACECHECK
  // Tags the channel with its shard owners (called by the kernel once
  // the partition plan is known): `producer` stages sends during the
  // component phase; `consumer` advances the channel during the
  // exchange phase (and receives from a flit channel during the
  // component phase).  `tile` is the consuming node.
  void rc_set_owners(int producer, int consumer, int tile,
                     const char* kind) {
    rc_tag_.producer_shard = producer;
    rc_tag_.owner_shard = consumer;
    rc_tag_.tile = tile;
    rc_tag_.kind = kind;
  }
#else
  void rc_set_owners(int, int, int, const char*) {}
#endif

 protected:
#if LAIN_RACECHECK
  void rc_producer(const char* op) const {
    contracts::check_producer_access(rc_tag_, op);
  }
  void rc_consumer(const char* op) const {
    contracts::check_consumer_access(rc_tag_, op);
  }
  void rc_exchange(const char* op) const {
    contracts::check_exchange_access(rc_tag_, op);
  }
  void rc_staging(const char* op) const {
    contracts::check_staging_read(rc_tag_, op);
  }

 private:
  contracts::OwnerTag rc_tag_;
#else
  void rc_producer(const char*) const {}
  void rc_consumer(const char*) const {}
  void rc_exchange(const char*) const {}
  void rc_staging(const char*) const {}
#endif
};

class FlitChannel : public ChannelOwners {
 public:
  // Producer side (at most one flit per cycle).  Double-send means the
  // producer violated the one-flit-per-cycle contract upstream flow
  // control guarantees; checked in Debug/sanitizer builds.
  LAIN_HOT_PATH LAIN_NO_ALLOC void send(const Flit& flit) {
    rc_producer("Channel::send");
    LAIN_SHARD_PHASE(component);
    assert(!staged_full_ && "channel accepts one item per cycle");
    staged_ = flit;
    staged_full_ = true;
  }

  // Consumer side: the flit that has completed traversal, if any.
  LAIN_HOT_PATH LAIN_NO_ALLOC std::optional<Flit> receive() {
    rc_consumer("Channel::receive");
    LAIN_SHARD_PHASE(component);
    if (!pipe_full_) return std::nullopt;
    pipe_full_ = false;
    return pipe_;
  }

  // Exchange phase (the consumer's shard): admit the staged flit into
  // the pipe.  Returns true when a flit was admitted this tick — the
  // event-driven kernel uses that to wake the consumer.
  LAIN_HOT_PATH LAIN_NO_ALLOC bool tick() {
    rc_exchange("Channel::tick");
    LAIN_SHARD_PHASE(exchange);
    if (!staged_full_) return false;
    assert(!pipe_full_ && "consumer stopped draining");
    pipe_ = staged_;
    pipe_full_ = true;
    staged_full_ = false;
    return true;
  }

  // Consumer-side probe for the idle fast path: true when a flit
  // waits in the pipe.  Reads only the consumer half of the channel,
  // so it is safe to call from the consumer's component phase while
  // the producer's shard may be staging a send concurrently: a flit
  // sent this cycle is admitted at the exchange phase and seen by the
  // next cycle's probe, the cycle it becomes receivable.  That makes
  // quiescence decisions built on this probe race-free AND
  // bit-deterministic across shard layouts.
  LAIN_HOT_PATH LAIN_NO_ALLOC bool consumer_pending() const {
    rc_consumer("Channel::consumer_pending");
    return pipe_full_;
  }

  // --- Fault-surgery interface (stop-the-world only) -----------------
  //
  // Called by the kernel's fault controller between steps, with every
  // shard parked at a barrier and no phase in flight, so these are
  // deliberately exempt from the phase-ownership checks.  Never call
  // them while a step is in flight.

  // Visits the pipe flit, then the staged flit (the staging slot is
  // empty between steps; visited defensively).
  template <typename Fn>
  void fault_for_each(Fn fn) const {
    if (pipe_full_) fn(pipe_);
    if (staged_full_) fn(staged_);
  }

  // Removes every flit matching `pred` from the pipe and the staging
  // slot.  Returns the removed count.
  template <typename Pred>
  int fault_purge(Pred pred) {
    int removed = 0;
    if (pipe_full_ && pred(pipe_)) {
      pipe_full_ = false;
      ++removed;
    }
    if (staged_full_ && pred(staged_)) {
      staged_full_ = false;
      ++removed;
    }
    return removed;
  }

  // Whole-channel probe: reads the staging slot, so during a sharded
  // component phase only the producer may call it (enforced under
  // LAIN_RACECHECK; any other shard would be reading a slot that is not
  // published until the exchange phase).
  int in_flight_count() const {
    rc_staging("Channel::in_flight_count");
    return (pipe_full_ ? 1 : 0) + (staged_full_ ? 1 : 0);
  }

 private:
  bool staged_full_ = false;  // staged_ holds this cycle's send
  bool pipe_full_ = false;    // pipe_ holds a flit receivable now
  Flit staged_{};
  Flit pipe_{};
};

class CreditChannel : public ChannelOwners {
 public:
  // Wiring (Router::connect_output, Nic::connect): the consumer's
  // credit counters, indexed by VC, and the downstream buffer depth
  // none of them may exceed.
  void connect(int* counters, int depth) {
    counters_ = counters;
    depth_ = depth;
  }

  // Producer side (at most one credit per cycle, like a flit channel).
  LAIN_HOT_PATH LAIN_NO_ALLOC void send(const Credit& credit) {
    rc_producer("Channel::send");
    LAIN_SHARD_PHASE(component);
    assert(!staged_full_ && "channel accepts one item per cycle");
    staged_ = credit;
    staged_full_ = true;
  }

  // Exchange phase (the consumer's shard): add the staged credit to
  // the consumer's counter.  Returns true when a credit was applied;
  // the consumer needs no wake-up, since its next tick reads the
  // counter.
  LAIN_HOT_PATH LAIN_NO_ALLOC bool tick() {
    rc_exchange("Channel::tick");
    LAIN_SHARD_PHASE(exchange);
    if (!staged_full_) return false;
    staged_full_ = false;
    int& credits = counters_[staged_.vc];
    ++credits;
    // A credit beyond the downstream depth means the flow-control
    // invariant broke; Debug/sanitizer builds stop here, Release hot
    // builds do not pay for the check on every credit.
    assert(credits <= depth_ && "credit overflow (flow-control bug)");
    return true;
  }

 private:
  bool staged_full_ = false;  // staged_ holds this cycle's send
  Credit staged_{};
  int* counters_ = nullptr;  // consumer's credits, indexed by VC
  int depth_ = 0;
};

}  // namespace lain::noc
