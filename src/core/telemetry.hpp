// telemetry.hpp — kernel profiling counters for the streaming
// telemetry layer.
//
// A Collector holds one cache-line-padded PhaseCounters slot per
// shard.  The kernel and the sharded engine write into it through the
// LAIN_TELEMETRY_* hooks below: each shard touches only its own slot
// (no sharing, no atomics), and the merge (totals()) runs on the
// calling thread after — or safely between — steps, exactly like the
// SimStats merge.
//
// The hooks follow the contracts-layer pattern (src/core/contracts.hpp):
//
//   LAIN_TELEMETRY=1 (default)  hooks compile to a null-checked
//                               counter write / scoped monotonic
//                               timer; with no Collector attached the
//                               cost is one predicted branch.
//   LAIN_TELEMETRY=0            every hook compiles to ((void)0) —
//                               no members, no branches, no calls.
//                               Configure with -DLAIN_TELEMETRY=0
//                               (CMake option LAIN_TELEMETRY=OFF).
//
// Wall-clock reads live in telemetry.cpp only (determinism-exempt in
// tools/lint/lain_lint.py): the counters measure the *host*, never
// feed back into the simulation, and cannot perturb the bit-identical
// sharded-stats contract.

#pragma once

#include <cstdint>
#include <vector>

#ifndef LAIN_TELEMETRY
#define LAIN_TELEMETRY 1
#endif

namespace lain::telemetry {

// One shard's profiling counters.  alignas(64) keeps neighbouring
// shards' slots on distinct cache lines, so concurrent phase-timer
// writes never false-share.
struct alignas(64) PhaseCounters {
  std::int64_t component_ns = 0;   // time inside step_shard_components
  std::int64_t exchange_ns = 0;    // time inside step_shard_channels
  std::int64_t barrier_ns = 0;     // time parked on the spin barriers
  std::int64_t component_calls = 0;
  std::int64_t exchange_calls = 0;
  // Channel ticks the exchange phase performed: every channel the
  // shard consumes each cycle under per-cycle stepping (two per link,
  // summed over shards); under event stepping only the channels sent on
  // plus the shard's boundary channels.
  std::int64_t channel_ticks = 0;

  void merge(const PhaseCounters& o) {
    component_ns += o.component_ns;
    exchange_ns += o.exchange_ns;
    barrier_ns += o.barrier_ns;
    component_calls += o.component_calls;
    exchange_calls += o.exchange_calls;
    channel_ticks += o.channel_ticks;
  }
};

// Per-shard counter slots.  Attach to a kernel with
// SimKernel::set_telemetry(); the kernel resizes the collector to its
// shard count.  Reading slots or totals() while a step is in flight
// is a race — read between steps or after run(), like SimStats.
class Collector {
 public:
  explicit Collector(int shards = 1) { resize(shards); }

  // Re-sizes to `shards` slots and zeroes every counter.
  void resize(int shards) {
    slots_.assign(static_cast<std::size_t>(shards < 1 ? 1 : shards),
                  PhaseCounters{});
  }
  void reset() { resize(static_cast<int>(slots_.size())); }

  int num_shards() const { return static_cast<int>(slots_.size()); }
  PhaseCounters& at(int shard) {
    return slots_[static_cast<std::size_t>(shard)];
  }
  const PhaseCounters& at(int shard) const {
    return slots_[static_cast<std::size_t>(shard)];
  }

  PhaseCounters totals() const {
    PhaseCounters t;
    for (const PhaseCounters& s : slots_) t.merge(s);
    return t;
  }

 private:
  std::vector<PhaseCounters> slots_;
};

#if LAIN_TELEMETRY

// Monotonic host clock in nanoseconds (telemetry.cpp; the only
// telemetry translation unit that reads a clock).
std::int64_t monotonic_ns();

// RAII phase timer: adds the scope's wall time to *slot.  A null slot
// (no collector attached) skips both clock reads.
class ScopedNs {
 public:
  explicit ScopedNs(std::int64_t* slot)
      : slot_(slot), t0_(slot != nullptr ? monotonic_ns() : 0) {}
  ~ScopedNs() {
    if (slot_ != nullptr) *slot_ += monotonic_ns() - t0_;
  }
  ScopedNs(const ScopedNs&) = delete;
  ScopedNs& operator=(const ScopedNs&) = delete;

 private:
  std::int64_t* slot_;
  std::int64_t t0_;
};

#define LAIN_TEL_CAT2(a, b) a##b
#define LAIN_TEL_CAT(a, b) LAIN_TEL_CAT2(a, b)

// Times the rest of the enclosing scope into collector->at(shard).field.
#define LAIN_TELEMETRY_SCOPE(collector, shard, field)                   \
  const ::lain::telemetry::ScopedNs LAIN_TEL_CAT(lain_tel_scope_,       \
                                                 __LINE__)(             \
      (collector) != nullptr ? &(collector)->at(shard).field : nullptr)

// collector->at(shard).field += delta (no-op without a collector).
#define LAIN_TELEMETRY_COUNT(collector, shard, field, delta)            \
  do {                                                                  \
    if ((collector) != nullptr) (collector)->at(shard).field += (delta); \
  } while (0)

#else  // !LAIN_TELEMETRY — every hook compiles away.

class ScopedNs {
 public:
  explicit ScopedNs(std::int64_t*) {}
  ScopedNs(const ScopedNs&) = delete;
  ScopedNs& operator=(const ScopedNs&) = delete;
};

#define LAIN_TELEMETRY_SCOPE(collector, shard, field) ((void)0)
#define LAIN_TELEMETRY_COUNT(collector, shard, field, delta) ((void)0)

#endif  // LAIN_TELEMETRY

}  // namespace lain::telemetry
