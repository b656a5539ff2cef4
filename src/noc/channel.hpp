// channel.hpp — pipelined flit and credit channels.
//
// A channel models link traversal with a fixed latency: items written
// at cycle t become visible to the receiver at t + latency.  Channels
// are advanced once per simulator cycle by the kernel.
//
// Internally the channel is split for the two-phase parallel kernel:
// send() only writes the producer-side staging slot, receive() only
// reads the consumer-side pipe, and tick() — the exchange phase —
// moves the staged item into the pipe.  With component ticks (sends
// and receives) and channel ticks separated by a barrier, a channel
// crossing a shard boundary needs no locks: its producer and consumer
// never touch the same member in the same phase.  Under LAIN_RACECHECK
// that split is enforced: every access checks the calling shard and
// phase against the channel's owners (see core/contracts.hpp).
//
// The pipe is a fixed ring over latency + 1 preallocated slots, not a
// deque: one item is admitted per cycle and the consumer drains every
// deliverable item each cycle, so occupancy never exceeds latency + 1
// (asserted in Debug/sanitizer builds) and the exchange phase never
// touches the heap.  Each slot stores the channel tick at which its
// item becomes receivable, so a tick or a skip of n cycles only
// advances the channel's own tick count.

#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/contracts.hpp"
#include "noc/flit.hpp"

namespace lain::noc {

template <typename T>
class Channel {
 public:
  explicit Channel(int latency_cycles = 1) : latency_(latency_cycles) {
    if (latency_cycles < 1) {
      throw std::invalid_argument("channel latency must be >= 1");
    }
    slots_ = std::make_unique<Slot[]>(static_cast<size_t>(capacity()));
  }

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
    if (count_ > 0 && slots_[static_cast<size_t>(head_)].ready <= ticks_) {
      T item = slots_[static_cast<size_t>(head_)].item;
      head_ = head_ + 1 == capacity() ? 0 : head_ + 1;
      --count_;
      return item;
    }
    return std::nullopt;
  }

  // Exchange phase: advance one cycle and admit the staged item.
  // Returns true when an item was admitted into the pipe this tick —
  // the event-driven kernel uses that to wake the consumer.
  LAIN_HOT_PATH LAIN_NO_ALLOC bool tick() {
    rc_exchange("Channel::tick");
    LAIN_SHARD_PHASE(exchange);
    ++ticks_;
    if (staged_full_) {
      assert(count_ < capacity() &&
             "channel pipe overflow (consumer stopped draining)");
      int tail = head_ + count_;
      if (tail >= capacity()) tail -= capacity();
      slots_[static_cast<size_t>(tail)] = Slot{staged_, ticks_ + latency_ - 1};
      ++count_;
      staged_full_ = false;
      return true;
    }
    return false;
  }

  // Exchange-phase bulk advance for cycle skipping: equivalent to n
  // consecutive tick() calls over cycles in which the producer stays
  // silent and nothing becomes receivable.  Preconditions (asserted):
  // nothing staged — between steps every send has been admitted — and
  // the oldest in-pipe item (so every item) is still n or more ticks
  // from receivable, which the kernel's horizon guarantees (the skip
  // never jumps past a delivery).
  LAIN_HOT_PATH LAIN_NO_ALLOC void advance_idle(int n) {
    rc_exchange("Channel::advance_idle");
    LAIN_SHARD_PHASE(exchange);
    assert(!staged_full_ &&
           "advance_idle with a staged item (missed exchange tick)");
    assert((count_ == 0 ||
            slots_[static_cast<size_t>(head_)].ready - ticks_ >= n) &&
           "skip horizon jumped past a delivery");
    ticks_ += n;
  }

  // Consumer-side probe for the idle fast path: true when anything is
  // in the pipe (deliverable now or still traversing).  Reads only the
  // consumer half of the channel, so — unlike in_flight() — it is safe
  // to call from the consumer's component phase while the producer's
  // shard may be staging a send concurrently: an item sent this cycle
  // is admitted at the exchange phase and seen by the next cycle's
  // probe, which (with latency >= 1) is always before it becomes
  // receivable.  That makes quiescence decisions built on this probe
  // race-free AND bit-deterministic across shard layouts.
  LAIN_HOT_PATH LAIN_NO_ALLOC bool consumer_pending() const {
    rc_consumer("Channel::consumer_pending");
    return count_ > 0;
  }

  // Consumer-side horizon probe for cycle skipping: cycles until the
  // oldest in-pipe item becomes receivable (0 = receivable in this
  // component phase), or -1 when the pipe is empty.  Admission is
  // FIFO at one item per tick with a fixed latency, so the head item
  // is always the first receivable — this single read bounds the
  // whole pipe.  Same consumer-side race-freedom argument as
  // consumer_pending().
  LAIN_HOT_PATH LAIN_NO_ALLOC int consumer_next_delivery() const {
    rc_consumer("Channel::consumer_next_delivery");
    if (count_ == 0) return -1;
    const Cycle wait = slots_[static_cast<size_t>(head_)].ready - ticks_;
    return wait > 0 ? static_cast<int>(wait) : 0;
  }

  // Exchange-owner probe: items in the pipe, for the kernel's wet-link
  // bookkeeping (a link with in-pipe items must keep ticking / be
  // advanced across a skip).  Called from the exchange phase only.
  LAIN_HOT_PATH LAIN_NO_ALLOC int pipe_count() const {
    rc_exchange("Channel::pipe_count");
    return count_;
  }

  // --- Fault-surgery interface (stop-the-world only) -----------------
  //
  // Called by the kernel's fault controller between steps, with every
  // shard parked at a barrier and no phase in flight, so these are
  // deliberately exempt from the phase-ownership checks.  Never call
  // them while a step is in flight.

  // Visits every in-pipe item oldest-first, then the staged item (the
  // staging slot is empty between steps; visited defensively).
  template <typename Fn>
  void fault_for_each(Fn fn) const {
    for (int i = 0; i < count_; ++i) {
      int idx = head_ + i;
      if (idx >= capacity()) idx -= capacity();
      fn(slots_[static_cast<size_t>(idx)].item);
    }
    if (staged_full_) fn(staged_);
  }

  // Removes every item matching `pred` from the pipe (and the staging
  // slot), compacting the ring while preserving order and each
  // survivor's ready stamp.  Returns the removed count.
  template <typename Pred>
  int fault_purge(Pred pred) {
    int removed = 0;
    int kept = 0;
    for (int i = 0; i < count_; ++i) {
      int idx = head_ + i;
      if (idx >= capacity()) idx -= capacity();
      Slot s = slots_[static_cast<size_t>(idx)];
      if (pred(s.item)) {
        ++removed;
        continue;
      }
      int out = head_ + kept;
      if (out >= capacity()) out -= capacity();
      slots_[static_cast<size_t>(out)] = s;
      ++kept;
    }
    count_ = kept;
    if (staged_full_ && pred(staged_)) {
      staged_full_ = false;
      ++removed;
    }
    return removed;
  }

  // Whole-channel probes: these read the staging slot, so during a
  // sharded component phase only the producer may call them (enforced
  // under LAIN_RACECHECK; any other shard would be reading a slot that
  // is not published until the exchange phase).
  bool in_flight() const {
    rc_staging("Channel::in_flight");
    return count_ > 0 || staged_full_;
  }
  int in_flight_count() const {
    rc_staging("Channel::in_flight_count");
    return count_ + (staged_full_ ? 1 : 0);
  }
  int latency() const { return latency_; }

#if LAIN_RACECHECK
  // Tags this channel with its shard owners (called by the kernel once
  // the partition plan is known): `producer` stages sends and
  // `consumer` receives during the component phase; `exchange_owner`
  // advances the pipe during the exchange phase.  For flit channels
  // consumer == exchange_owner (the link owner); for credit channels —
  // which flow opposite to flits — the link owner produces and still
  // ticks, while the link source consumes.
  void rc_set_owners(int producer, int consumer, int exchange_owner,
                     int tile, const char* kind) {
    rc_tag_.producer_shard = producer;
    rc_tag_.consumer_shard = consumer;
    rc_tag_.owner_shard = exchange_owner;
    rc_tag_.tile = tile;
    rc_tag_.kind = kind;
  }
  const contracts::OwnerTag& rc_tag() const { return rc_tag_; }
#else
  void rc_set_owners(int, int, int, int, const char*) {}
#endif

 private:
  struct Slot {
    T item;
    Cycle ready;  // first value of ticks_ at which item is receivable
  };
  int capacity() const { return latency_ + 1; }

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
  contracts::OwnerTag rc_tag_;
#else
  void rc_producer(const char*) const {}
  void rc_consumer(const char*) const {}
  void rc_exchange(const char*) const {}
  void rc_staging(const char*) const {}
#endif

  // What a tick reads sits in the first 32 bytes.
  Cycle ticks_ = 0;                 // exchange ticks so far, skips included
  std::unique_ptr<Slot[]> slots_;   // fixed ring storage, latency_ + 1 slots
  int latency_;
  int head_ = 0;                    // index of the oldest in-pipe item
  int count_ = 0;                   // items in the pipe (excludes staged_)
  bool staged_full_ = false;        // staged_ holds this cycle's send
  T staged_{};
};

using FlitChannel = Channel<Flit>;
using CreditChannel = Channel<Credit>;

}  // namespace lain::noc
