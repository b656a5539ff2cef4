// state.hpp — activity states of a gated circuit block.

#pragma once

namespace lain::power {

enum class ActivityState {
  kActive,   // transferring data this cycle
  kIdle,     // no traffic, clocks running, not gated
  kStandby,  // sleep asserted (parked, minimum-leakage state)
};

}  // namespace lain::power
