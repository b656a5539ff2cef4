// channel.hpp — one-cycle flit and credit channels.
//
// A channel models link traversal in one cycle: an item sent at cycle
// t becomes visible to the receiver at t + 1.  Channels are advanced
// once per simulator cycle by the kernel.
//
// Internally the channel is split for the two-phase parallel kernel:
// send() only writes the producer-side staging slot, receive() only
// reads the consumer-side pipe slot, and tick() — the exchange phase of
// the consumer's shard — moves the staged item into the pipe.  With
// component ticks (sends and receives) and channel ticks separated by
// a barrier, a channel crossing a shard boundary needs no locks: its
// producer and consumer never touch the same member in the same phase.
// Under LAIN_RACECHECK that split is enforced: every access checks the
// calling shard and phase against the channel's owners (see
// core/contracts.hpp).
//
// The channel is a mailbox of two inline slots, not a queue: one item
// is admitted per cycle, and every consumer drains its inbound
// channels in the cycle after an admission, so the pipe slot is always
// free when the next item arrives (asserted in Debug/sanitizer builds)
// and the exchange phase never touches the heap.

#pragma once

#include <cassert>
#include <optional>

#include "core/contracts.hpp"
#include "noc/flit.hpp"

namespace lain::noc {

template <typename T>
class Channel {
 public:
  // Producer side (at most one item per cycle).  Double-send means the
  // producer violated the one-flit-per-cycle contract upstream flow
  // control guarantees; checked in Debug/sanitizer builds.
  LAIN_HOT_PATH LAIN_NO_ALLOC void send(const T& item) {
    rc_producer("Channel::send");
    LAIN_SHARD_PHASE(component);
    assert(!staged_full_ && "channel accepts one item per cycle");
    staged_ = item;
    staged_full_ = true;
  }

  // Consumer side: item that has completed traversal, if any.
  LAIN_HOT_PATH LAIN_NO_ALLOC std::optional<T> receive() {
    rc_consumer("Channel::receive");
    LAIN_SHARD_PHASE(component);
    if (!pipe_full_) return std::nullopt;
    pipe_full_ = false;
    return pipe_;
  }

  // Exchange phase (the consumer's shard): admit the staged item into
  // the pipe.  Returns true when an item was admitted this tick — the
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

  // Consumer-side probe for the idle fast path: true when an item
  // waits in the pipe.  Reads only the consumer half of the channel,
  // so it is safe to call from the consumer's component phase while
  // the producer's shard may be staging a send concurrently: an item
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

  // Visits the pipe item, then the staged item (the staging slot is
  // empty between steps; visited defensively).
  template <typename Fn>
  void fault_for_each(Fn fn) const {
    if (pipe_full_) fn(pipe_);
    if (staged_full_) fn(staged_);
  }

  // Removes every item matching `pred` from the pipe and the staging
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

#if LAIN_RACECHECK
  // Tags this channel with its shard owners (called by the kernel once
  // the partition plan is known): `producer` stages sends during the
  // component phase; `consumer` receives during the component phase
  // and advances the pipe during the exchange phase.  `tile` is the
  // consuming node.
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

 private:
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
#else
  void rc_producer(const char*) const {}
  void rc_consumer(const char*) const {}
  void rc_exchange(const char*) const {}
  void rc_staging(const char*) const {}
#endif

  bool staged_full_ = false;  // staged_ holds this cycle's send
  bool pipe_full_ = false;    // pipe_ holds an item receivable now
  T staged_{};
  T pipe_{};
#if LAIN_RACECHECK
  contracts::OwnerTag rc_tag_;
#endif
};

using FlitChannel = Channel<Flit>;
using CreditChannel = Channel<Credit>;

}  // namespace lain::noc
