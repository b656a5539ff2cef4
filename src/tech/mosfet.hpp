// mosfet.hpp — analytic MOSFET model (drive, subthreshold & gate leakage).
//
// BPTM substitution: instead of SPICE decks we use the standard
// analytic forms those decks reduce to at first order —
//
//   drive (on):        Ion  = k * W * (Vdd - Vth)^alpha          (alpha-power)
//   subthreshold:      Isub = i0 * W * vT^2
//                             * exp((Vgs - Vth(Vds,T)) / (n * vT))
//                             * (1 - exp(-Vds / vT))
//   threshold:         Vth(Vds,T) = Vth0 - dibl*(Vds - Vdd)
//                                   - tc*(T - 300K)
//   gate leakage:      Ig   = Jg * W * Lg * (Vox/Vdd)^2
//                             * exp(gamma_g * (Vox - Vdd))
//
// Vth0 is the *saturated* threshold at Vds = Vdd, so DIBL only enters
// for stacks where an OFF device sees reduced Vds (this is what makes
// the stack effect fall out of the model naturally).
//
// Dual-Vt: every device carries a VtClass; the high-Vt variant raises
// Vth0 by the dual-Vt offset, cutting subthreshold leakage ~8-15x at
// the cost of drive (higher effective resistance).
//
// All voltages are magnitudes: PMOS devices are modeled with the same
// positive-overdrive conventions, the caller keeps track of polarity.

#pragma once

#include <algorithm>
#include <cmath>

#include "tech/itrs.hpp"

namespace lain::tech {

enum class DeviceType { kNmos, kPmos };
enum class VtClass { kNominal, kHigh };

// A transistor instance: what the circuit layer places in netlists.
struct Mosfet {
  DeviceType type = DeviceType::kNmos;
  VtClass vt = VtClass::kNominal;
  double width_m = 0.0;
};

// Per-(type, vt-class) electrical parameters.
struct DeviceParams {
  double vth0_v = 0.0;       // saturated threshold at Vds=Vdd, 300 K
  double dibl = 0.0;         // V of Vth drop per V of Vds
  double n_sub = 0.0;        // subthreshold ideality (swing = n*vT*ln10)
  double vth_tc = 0.0;       // Vth temperature coefficient
                             // (V/K, >0 means Vth falls)
  double i0_sub = 0.0;       // subthreshold prefactor (A / (m * V^2))
  double k_ion = 0.0;        // alpha-power transconductance (A / (m * V^alpha))
  double alpha = 0.0;        // velocity-saturation exponent
  double jg_ref = 0.0;       // gate leakage density at Vox=Vdd (A / m^2)
  double gamma_g = 0.0;      // gate-leakage voltage slope (1/V)
  double cgate_per_m = 0.0;  // gate capacitance per width (F/m)
  double cdrain_per_m = 0.0; // drain junction + overlap cap per width (F/m)
};

// The bias-independent terms of one device's threshold and
// subthreshold equations, and the one home of those two formulas:
// DeviceModel::vth_v / subthreshold_a evaluate them on terms built per
// call, while the leakage solver keeps one DeviceTerms per device so
// its bisection does not rebuild them.  Each term is the sub-expression
// the formula evaluates first, so both paths give identical bits.
struct DeviceTerms {
  double vth_base_v = 0.0;   // vth0 + corner shift
  double dibl = 0.0;
  double vdd_v = 0.0;
  double vth_temp_v = 0.0;   // vth_tc * (T - 300 K)
  double width_m = 0.0;
  double vt_v = 0.0;         // thermal voltage
  double sub_scale_a = 0.0;  // i0 * W * vT * vT
  double n_vt_v = 0.0;       // n * vT

  // Effective threshold at drain-source bias `vds_v` (magnitude).
  double vth_v(double vds_v) const {
    return vth_base_v - dibl * (vds_v - vdd_v) - vth_temp_v;
  }

  // Subthreshold current (A) at gate/drain bias magnitudes, given
  // `vth` = vth_v(vds_v).
  double subthreshold_a(double vgs_v, double vds_v, double vth) const {
    if (vds_v <= 0.0 || width_m <= 0.0) return 0.0;
    const double expo = (vgs_v - vth) / n_vt_v;
    // Clamp: above threshold the exponential law is invalid; leakage
    // callers never ask for vgs > vth, but be safe.
    return sub_scale_a * std::exp(std::min(expo, 0.0)) *
           (1.0 - std::exp(-vds_v / vt_v));
  }
};

// Device model bound to a node (supplies Vdd, Lg) and a temperature.
// Thread-safe: all methods are const.
class DeviceModel {
 public:
  // Builds the default dual-Vt 45/65/90 nm parameter sets for `node`.
  // `temp_k` defaults to the node's junction temperature.
  explicit DeviceModel(const TechNode& node);
  DeviceModel(const TechNode& node, double temp_k);

  // Corner-adjusted model: shifts all thresholds by `vth_shift_v`
  // (FF < 0 < SS) and scales drive by `drive_scale` — see corners.hpp.
  DeviceModel(const TechNode& node, double temp_k, double vth_shift_v,
              double drive_scale, double vdd_scale);

  double vdd_v() const { return vdd_v_; }
  double temp_k() const { return temp_k_; }
  double lgate_m() const { return lgate_m_; }

  const DeviceParams& params(DeviceType type, VtClass vt) const;

  // The bias-independent threshold/subthreshold terms of `m`.
  DeviceTerms terms(const Mosfet& m) const;

  // Effective threshold of `m` at drain-source bias `vds_v` (magnitude)
  // and the model temperature.
  double vth_v(const Mosfet& m, double vds_v) const;

  // Saturated on-current at full gate drive (A).
  double ion_a(const Mosfet& m) const;

  // Switching effective resistance: r_factor * Vdd / Ion.  Used by the
  // Elmore delay engine.  Throws std::domain_error when the device has
  // no drive (Ion <= 0).
  double eff_resistance_ohm(const Mosfet& m) const;

  // Subthreshold current for gate/drain bias magnitudes (A).  vgs may
  // be negative (under-driven gate, e.g. stack intermediate node).
  double subthreshold_a(const Mosfet& m, double vgs_v, double vds_v) const;

  // Convenience: worst-case OFF leakage, vgs=0, vds=Vdd.
  double ioff_a(const Mosfet& m) const;

  // Gate tunneling leakage at oxide voltage `vox_v` (A); 0 for vox<=0.
  double gate_leak_a(const Mosfet& m, double vox_v) const;

  // Capacitances (F).
  double gate_cap_f(const Mosfet& m) const;
  double drain_cap_f(const Mosfet& m) const;

 private:
  double vdd_v_;
  double temp_k_;
  double lgate_m_;
  double vth_shift_v_ = 0.0;
  double drive_scale_ = 1.0;
  DeviceParams nmos_nominal_;
  DeviceParams nmos_high_;
  DeviceParams pmos_nominal_;
  DeviceParams pmos_high_;
};

}  // namespace lain::tech
