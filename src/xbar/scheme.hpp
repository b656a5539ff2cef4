// scheme.hpp — the five crossbar schemes evaluated in the paper.

#pragma once

#include <array>
#include <stdexcept>
#include <string_view>

namespace lain::xbar {

// Each scheme's output slice is assembled by build_output_slice
// (xbar/builder.hpp).
enum class Scheme {
  // Single-Vt baseline.  Same circuit as the DFC (Fig 1) — grant pass
  // transistors into node A, feedback keeper, I1/I2 driver, sleep
  // pulldown N5 — but every device uses the nominal threshold.  This
  // is the base case all Table-1 savings are measured against.
  kSC,
  // Dual-Vt feedback crossbar (Fig 1).  The SC circuit with a
  // staggered dual-Vt assignment biased toward the High->Low output
  // transition: the feedback keeper and I1's NMOS — the devices that
  // are OFF when the cell rests in its parked state (node A low) — are
  // high-Vt.  The weaker high-Vt keeper also reduces contention when
  // node A discharges, which is why the DFC's HL delay *improves* on
  // SC while LH pays a small penalty.
  kDFC,
  // Dual-Vt pre-charged crossbar (Fig 2).  The output wire is
  // precharged to Vdd in the negative clock phase, so a logic-1
  // transfer has virtually zero data delay and the pull-up side of the
  // output driver is never speed-critical.  That lets the I2 PMOS and
  // the precharge pFET go high-Vt on top of the DFC map.  In standby
  // (sleep=1, pre deactivated) the driver chain rests in its
  // minimum-leakage state — every OFF device is high-Vt — which is
  // what produces the 93.68 % standby-leakage saving in Table 1.
  kDPC,
  // Segmented dual-Vt feedback crossbar (Fig 3a).  Each row/column
  // wire is split in two at mid-span by a (high-Vt) transmission gate;
  // each half carries its own downsized, tri-stated mux/driver cell
  // serving the input rows that land in it.  Short connections (the
  // paper's "path 1") stay within the near half — less RC, more
  // slack, letting the near half's driver go fully high-Vt — while an
  // idle half is parked (per-segment standby) even when the crossbar
  // is active.  The boundary switch costs the worst path ("path 2")
  // the 4.69 % delay penalty Table 1 reports.
  kSDFC,
  // Segmented dual-Vt pre-charged crossbar (Fig 3b).  Segmentation
  // plus precharge: every row and column segment has its own
  // precharge pFET, the keeper disappears (precharge restores levels,
  // so the pass-transistor Vt drop no longer needs level restoration),
  // and the slack freed by precharging lets *all* driver transistors
  // go high-Vt in both halves.  This is the paper's best scheme on
  // both leakage rows (63.57 % active, 95.96 % standby) at a 2.28 %
  // delay penalty.
  kSDPC,
};

constexpr std::array<Scheme, 5> all_schemes() {
  return {Scheme::kSC, Scheme::kDFC, Scheme::kDPC, Scheme::kSDFC,
          Scheme::kSDPC};
}

constexpr std::string_view scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kSC: return "SC";
    case Scheme::kDFC: return "DFC";
    case Scheme::kDPC: return "DPC";
    case Scheme::kSDFC: return "SDFC";
    case Scheme::kSDPC: return "SDPC";
  }
  throw std::invalid_argument("unknown scheme");
}

constexpr bool is_segmented(Scheme s) {
  return s == Scheme::kSDFC || s == Scheme::kSDPC;
}

constexpr bool is_precharged(Scheme s) {
  return s == Scheme::kDPC || s == Scheme::kSDPC;
}

}  // namespace lain::xbar
