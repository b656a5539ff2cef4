// spec.hpp — crossbar design-point specification.
//
// A CrossbarSpec fixes everything *except* the scheme: matrix size,
// flit width, technology node, frequency, workload statistics and the
// device sizing shared by all five schemes.  The Table-1 design point
// (5x5 matrix, 128-bit flits, 45 nm, 3 GHz, 50 % static probability)
// is the default.
//
// Device widths below are the library's calibration knobs: they were
// chosen once so the *SC baseline column* of Table 1 is matched (delay
// and total-power magnitudes); the other schemes' numbers then follow
// from their circuit structure.  `lain_bench table1` prints the
// paper-vs-measured comparison the fit was made against.

#pragma once

#include <cmath>
#include <stdexcept>

#include "tech/itrs.hpp"
#include "tech/units.hpp"

namespace lain::xbar {

struct DeviceSizing {
  // Per-bit mux cell (Fig 1): grant pass transistors N1..N4.
  double pass_width_m = 3.0e-6;
  // Driver chain I1 (small) and I2 (output driver).
  double drv1_wn_m = 1.5e-6;
  double drv1_wp_m = 2.7e-6;
  double drv2_wn_m = 6.0e-6;
  double drv2_wp_m = 10.8e-6;
  // Feedback keeper P1 (Fig 1).  Sized for noise robustness on the
  // weakly-driven mux node; the resulting contention is what the DFC
  // relieves by moving the keeper to high Vt.
  double keeper_width_m = 3.5e-6;
  // Sleep pulldown N5 (per bit; the *signal* is shared per flit).
  double sleep_width_m = 0.5e-6;
  // Precharge pFET (Fig 2), per output wire; sized so the precharge
  // completes in roughly one data delay (Table 1's LH/precharge row).
  double precharge_width_m = 2.5e-6;
  // Per-segment precharge pFET (Fig 3b), segmented precharged schemes.
  double precharge_seg_width_m = 2.0e-6;
  // Input-port driver feeding the input row wire.
  double input_drv_wn_m = 4.0e-6;
  double input_drv_wp_m = 7.2e-6;
  // Segment isolation transmission gate (Fig 3), per boundary.
  double segment_switch_width_m = 12.0e-6;
};

struct CrossbarSpec {
  int ports = 5;          // 5x5 matrix (N, S, W, E, PE)
  int flit_bits = 128;    // bits per flit
  double freq_hz = 3.0e9; // evaluation frequency
  double static_probability = 0.5;  // P[data bit = 1], worst case 0.5
  tech::Node node = tech::Node::k45nm;
  tech::WireTier tier = tech::WireTier::kIntermediate;
  double temp_k = 383.0;  // 110 C junction
  DeviceSizing sizing;

  // Throws std::invalid_argument when inconsistent or not finite.
  void validate() const;
};

// The paper's Table-1 design point.
CrossbarSpec table1_spec();

inline void CrossbarSpec::validate() const {
  // Every range check is phrased so that NaN fails it.
  auto positive = [](double x) { return x > 0.0 && std::isfinite(x); };
  if (ports < 2) throw std::invalid_argument("crossbar needs >= 2 ports");
  if (flit_bits < 1) throw std::invalid_argument("flit must have >= 1 bit");
  if (!positive(freq_hz)) {
    throw std::invalid_argument("frequency must be positive");
  }
  if (!(static_probability >= 0.0 && static_probability <= 1.0)) {
    throw std::invalid_argument("static probability must be in [0,1]");
  }
  if (!positive(temp_k)) {
    throw std::invalid_argument("temperature must be positive");
  }
  const double* widths[] = {
      &sizing.pass_width_m,   &sizing.drv1_wn_m,       &sizing.drv1_wp_m,
      &sizing.drv2_wn_m,      &sizing.drv2_wp_m,       &sizing.keeper_width_m,
      &sizing.sleep_width_m,  &sizing.precharge_width_m,
      &sizing.precharge_seg_width_m,
      &sizing.input_drv_wn_m, &sizing.input_drv_wp_m,
      &sizing.segment_switch_width_m};
  for (const double* w : widths) {
    if (!positive(*w)) {
      throw std::invalid_argument("device widths must be positive");
    }
  }
}

inline CrossbarSpec table1_spec() { return CrossbarSpec{}; }

}  // namespace lain::xbar
