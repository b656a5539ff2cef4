#include "core/contracts.hpp"

#include <cstdio>
#include <cstdlib>

namespace lain::contracts {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::none:
      return "none";
    case Phase::component:
      return "component";
    case Phase::exchange:
      return "exchange";
  }
  return "?";
}

#if LAIN_RACECHECK

namespace {

// The only mutable globals in the library outside LainContext — the
// racecheck instrument's own per-thread execution context.
// LAIN_LINT_ALLOW(mutable-global): racecheck thread-execution state
thread_local Phase tl_phase = Phase::none;
// LAIN_LINT_ALLOW(mutable-global): racecheck thread-execution state
thread_local int tl_shard = -1;

}  // namespace

Phase current_phase() { return tl_phase; }
int current_shard() { return tl_shard; }

PhaseScope::PhaseScope(Phase phase, int shard)
    : prev_phase_(tl_phase), prev_shard_(tl_shard) {
  tl_phase = phase;
  tl_shard = shard;
}

PhaseScope::~PhaseScope() {
  tl_phase = prev_phase_;
  tl_shard = prev_shard_;
}

void report_violation(const OwnerTag& tag, const char* op,
                      const char* what) {
  std::fprintf(stderr,
               "[lain racecheck] %s: %s: %s tile %d (owner shard %d, "
               "producer shard %d) touched by shard %d during %s phase\n",
               op, what, tag.kind, tag.tile, tag.owner_shard,
               tag.producer_shard, tl_shard, phase_name(tl_phase));
  std::abort();
}

void check_component_mutation(const OwnerTag& tag, const char* op) {
  if (tl_phase == Phase::none || tag.owner_shard < 0) return;
  if (tl_phase == Phase::exchange) {
    report_violation(tag, op, "component mutated during exchange phase");
  }
  if (tl_shard >= 0 && tl_shard != tag.owner_shard) {
    report_violation(tag, op,
                     "cross-shard mutation outside the exchange phase");
  }
}

void check_producer_access(const OwnerTag& tag, const char* op) {
  if (tl_phase == Phase::none || tag.producer_shard < 0) return;
  if (tl_phase == Phase::exchange) {
    report_violation(tag, op, "producer-side access during exchange phase");
  }
  if (tl_shard >= 0 && tl_shard != tag.producer_shard) {
    report_violation(tag, op, "producer-side access from non-owner shard");
  }
}

void check_consumer_access(const OwnerTag& tag, const char* op) {
  if (tl_phase == Phase::none || tag.owner_shard < 0) return;
  if (tl_phase == Phase::exchange) {
    report_violation(tag, op, "consumer-side access during exchange phase");
  }
  if (tl_shard >= 0 && tl_shard != tag.owner_shard) {
    report_violation(tag, op, "consumer-side access from non-owner shard");
  }
}

void check_exchange_access(const OwnerTag& tag, const char* op) {
  if (tl_phase == Phase::none || tag.owner_shard < 0) return;
  if (tl_phase == Phase::component) {
    report_violation(tag, op, "channel advanced during component phase");
  }
  if (tl_shard >= 0 && tl_shard != tag.owner_shard) {
    report_violation(tag, op, "channel advanced by non-owner shard");
  }
}

void check_staging_read(const OwnerTag& tag, const char* op) {
  if (tag.producer_shard < 0) return;
  if (tl_phase == Phase::component && tl_shard >= 0 &&
      tl_shard != tag.producer_shard) {
    report_violation(tag, op, "staging-slot read before publish");
  }
}

void assert_phase(Phase expected, const char* op) {
  if (tl_phase == Phase::none || tl_phase == expected) return;
  std::fprintf(stderr,
               "[lain racecheck] %s: must run in the %s phase, but shard "
               "%d is in its %s phase\n",
               op, phase_name(expected), tl_shard, phase_name(tl_phase));
  std::abort();
}

#endif  // LAIN_RACECHECK

}  // namespace lain::contracts
