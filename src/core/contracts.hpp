// contracts.hpp — machine-checked invariant markers for the hot paths.
//
// The simulator's headline guarantees — bit-identical sharded stats,
// an allocation-free per-cycle hot path, deterministic per-node RNG
// streams — were historically enforced only by point tests.  This
// header turns them into contracts the toolchain checks:
//
//   LAIN_HOT_PATH        declares a function part of the per-cycle hot
//                        path.  The lint gate (tools/lint/lain_lint.py)
//                        forbids `throw` inside its extent (hot-path
//                        flow-control checks are asserts, free in
//                        Release), and the compiler gets a hotness
//                        hint.
//   LAIN_NO_ALLOC        declares a function heap-allocation-free in
//                        steady state.  The lint gate forbids
//                        new/malloc/container-growth calls inside its
//                        extent; tests/noalloc_probe.cpp proves the
//                        same property at runtime.
//   LAIN_SHARD_PHASE(p)  declares that a function may only execute
//                        inside kernel phase `p` (`component` or
//                        `exchange`) — or outside any kernel step
//                        (unit tests drive components directly).
//                        Under LAIN_RACECHECK it aborts with a
//                        diagnostic when violated; otherwise it
//                        compiles to nothing.
//
// The racecheck layer (LAIN_RACECHECK=1, `racecheck` preset) addition-
// ally tags every Router/Nic/Channel with its owning shard from the
// PartitionPlan (a channel's owner is its consumer) and records, per
// thread, which shard and phase that thread is currently stepping.
// Cross-shard mutation during the component phase, producer-side
// channel access from a non-owner, channel advance outside the
// exchange phase or by a shard other than the consumer's, and
// staging-slot reads before publication all abort with a message
// naming both shards, the tile and the phase.  These are deterministic
// *logic* races — two accesses separated by a barrier but owned by
// different shards — which TSan structurally cannot see (it only flags
// unsynchronized access, and the two-phase barrier synchronizes
// everything).
//
// When LAIN_RACECHECK is off (every default build), the instruments
// compile away completely: no members, no branches, no calls.

#pragma once

#ifndef LAIN_RACECHECK
#define LAIN_RACECHECK 0
#endif

// Hot-path marker: lint token + compiler hint.  Place it on the
// definition (the lint extent is the function body that follows).
#if defined(__GNUC__) || defined(__clang__)
#define LAIN_HOT_PATH __attribute__((hot))
#else
#define LAIN_HOT_PATH
#endif

// No-allocation marker: pure lint token (the runtime proof lives in
// tests/noalloc_probe.cpp).  Place it on the definition.
#define LAIN_NO_ALLOC

namespace lain::contracts {

// The two-phase kernel step; `none` means no kernel step is in flight
// on this thread (standalone component use, construction, merging).
enum class Phase : int { none = 0, component = 1, exchange = 2 };

const char* phase_name(Phase p);

#if LAIN_RACECHECK

// Which shard/phase the calling thread is currently stepping.
Phase current_phase();
int current_shard();

// RAII: marks the calling thread as stepping `shard` through `phase`.
// Installed by SimKernel::step_shard_components / _channels, so both
// the serial and the sharded engine are covered.
class PhaseScope {
 public:
  PhaseScope(Phase phase, int shard);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase prev_phase_;
  int prev_shard_;
};

// Shard-ownership tag carried by instrumented components.  shard < 0
// means untagged (object not owned by any kernel): all checks pass.
struct OwnerTag {
  const char* kind = "object";
  int tile = -1;
  // Components: the component-phase mutator.  Channels: the consumer,
  // whose exchange phase advances the channel (a credit channel adds
  // its credit to the consumer's counter there) and whose component
  // phase reads a flit channel's pipe.
  int owner_shard = -1;
  int producer_shard = -1;  // channels: the staging-slot writer
};

// Aborts with a diagnostic naming the object, both shards, the tile
// and the current phase.
[[noreturn]] void report_violation(const OwnerTag& tag, const char* op,
                                   const char* what);

// A component (router/NIC) is being mutated: must be the owner's
// component phase (or no phase at all).
void check_component_mutation(const OwnerTag& tag, const char* op);
// Producer-side channel access (send): component phase, producer only.
void check_producer_access(const OwnerTag& tag, const char* op);
// Consumer-side flit channel access (receive / consumer_pending):
// component phase, consumer (the channel's owner) only.
void check_consumer_access(const OwnerTag& tag, const char* op);
// Channel advance (tick, which for a credit channel writes the
// consumer's credit counter): exchange phase, consumer only.
void check_exchange_access(const OwnerTag& tag, const char* op);
// Staging-slot read (in_flight and friends): during a component phase
// only the producer may look at its own unpublished staging slot.
void check_staging_read(const OwnerTag& tag, const char* op);

// The LAIN_SHARD_PHASE(p) backend: current thread must be in phase
// `expected` or in no phase.
void assert_phase(Phase expected, const char* op);

#define LAIN_SHARD_PHASE(p) \
  ::lain::contracts::assert_phase(::lain::contracts::Phase::p, __func__)

#else  // !LAIN_RACECHECK — every instrument compiles away.

inline Phase current_phase() { return Phase::none; }
inline int current_shard() { return -1; }

class PhaseScope {
 public:
  PhaseScope(Phase, int) {}
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
};

struct OwnerTag {};

inline void check_component_mutation(const OwnerTag&, const char*) {}
inline void check_producer_access(const OwnerTag&, const char*) {}
inline void check_consumer_access(const OwnerTag&, const char*) {}
inline void check_exchange_access(const OwnerTag&, const char*) {}
inline void check_staging_read(const OwnerTag&, const char*) {}

#define LAIN_SHARD_PHASE(p) ((void)0)

#endif  // LAIN_RACECHECK

}  // namespace lain::contracts
