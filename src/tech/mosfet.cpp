#include "tech/mosfet.hpp"

#include <cmath>
#include <stdexcept>

#include "tech/units.hpp"

namespace lain::tech {
namespace {

// Base parameter sets for the 45 nm node (the paper's node).  Values
// are BPTM-class projections:
//   * nominal Vth ~ 0.22 V (sat), high-Vt offset +0.10 V,
//   * subthreshold swing ~ 100 mV/dec at 110 C (n = 1.45),
//   * DIBL ~ 0.13 V/V,
//   * Ion ~ 1.1 mA/um (N) / 0.55 mA/um (P) at Vdd = 1.0 V,
//   * gate leakage ~ 6e5 A/m^2 at Vox = Vdd for 1.4 nm SiON,
//   * gate cap ~ 0.9 fF/um, drain cap ~ 0.6 fF/um.
// 65/90 nm sets are scaled versions used only for node sweeps.
constexpr double kDualVtOffsetV = 0.10;

DeviceParams make_nmos_45(VtClass vt) {
  DeviceParams p;
  p.vth0_v = 0.22 + (vt == VtClass::kHigh ? kDualVtOffsetV : 0.0);
  p.dibl = 0.13;
  p.n_sub = 1.45;
  p.vth_tc = 0.7e-3;
  // Subthreshold prefactor calibrated to the *2005-era predictive*
  // 45 nm leakage projections (pre-high-k worst case): Ioff(nominal
  // Vt, 110 C, Vds = Vdd) ~ 6 uA/um — far leakier than shipped 45 nm
  // silicon, but what BPTM-class models of the time (and hence the
  // paper's absolute mW numbers) assumed.
  p.i0_sub = 2.4e5;    // A/(m*V^2)
  p.k_ion = 1.7e3;     // A/(m*V^alpha) -> Ion ~ 1.1 mA/um at 1.0 V
  p.alpha = 1.3;
  p.jg_ref = 6.0e5;    // A/m^2 at Vox = Vdd
  p.gamma_g = 9.2;     // ~1 decade per 250 mV of oxide voltage
  p.cgate_per_m = 0.9e-9;
  p.cdrain_per_m = 0.6e-9;
  return p;
}

DeviceParams make_pmos_45(VtClass vt) {
  DeviceParams p = make_nmos_45(vt);
  p.vth0_v = 0.22 + (vt == VtClass::kHigh ? kDualVtOffsetV : 0.0);
  p.k_ion *= 0.55;   // hole mobility penalty
  p.i0_sub *= 0.45;  // lower hole subthreshold prefactor
  p.jg_ref *= 0.3;   // PMOS gate leakage markedly lower (SiON)
  return p;
}

// Node scaling for sweeps: older nodes leak less, drive slightly less
// per um at their higher Vdd.
void scale_for_node(DeviceParams& p, const TechNode& node) {
  if (node.feature_m > 80e-9) {        // 90 nm
    p.vth0_v += 0.08;
    p.i0_sub *= 0.25;
    p.jg_ref *= 0.2;
    p.cgate_per_m *= 1.6;
    p.cdrain_per_m *= 1.5;
  } else if (node.feature_m > 50e-9) {  // 65 nm
    p.vth0_v += 0.04;
    p.i0_sub *= 0.5;
    p.jg_ref *= 0.45;
    p.cgate_per_m *= 1.25;
    p.cdrain_per_m *= 1.2;
  }
}

// Fraction of Vdd/Ion used as the switching effective resistance.
// The classic fit for step inputs is ~0.85 Vdd/Ion; slow ramps through
// pass-transistor stages roughly double it.  1.5 is the value that,
// together with the delay-model slope factor, reproduces the SC
// baseline delays of Table 1 (compare with `lain_bench table1`).
constexpr double kReffFactor = 1.5;

}  // namespace

DeviceModel::DeviceModel(const TechNode& node)
    : DeviceModel(node, node.temp_k) {}

DeviceModel::DeviceModel(const TechNode& node, double temp_k)
    : DeviceModel(node, temp_k, 0.0, 1.0, 1.0) {}

DeviceModel::DeviceModel(const TechNode& node, double temp_k,
                         double vth_shift_v, double drive_scale,
                         double vdd_scale)
    : vdd_v_(node.vdd_v * vdd_scale),
      temp_k_(temp_k),
      lgate_m_(node.lgate_m),
      vth_shift_v_(vth_shift_v),
      drive_scale_(drive_scale),
      nmos_nominal_(make_nmos_45(VtClass::kNominal)),
      nmos_high_(make_nmos_45(VtClass::kHigh)),
      pmos_nominal_(make_pmos_45(VtClass::kNominal)),
      pmos_high_(make_pmos_45(VtClass::kHigh)) {
  if (temp_k <= 0.0) {
    throw std::invalid_argument("temperature must be positive");
  }
  scale_for_node(nmos_nominal_, node);
  scale_for_node(nmos_high_, node);
  scale_for_node(pmos_nominal_, node);
  scale_for_node(pmos_high_, node);
}

const DeviceParams& DeviceModel::params(DeviceType type, VtClass vt) const {
  if (type == DeviceType::kNmos) {
    return vt == VtClass::kNominal ? nmos_nominal_ : nmos_high_;
  }
  return vt == VtClass::kNominal ? pmos_nominal_ : pmos_high_;
}

DeviceTerms DeviceModel::terms(const Mosfet& m) const {
  const DeviceParams& p = params(m.type, m.vt);
  DeviceTerms t;
  t.vth_base_v = p.vth0_v + vth_shift_v_;
  t.dibl = p.dibl;
  t.vdd_v = vdd_v_;
  t.vth_temp_v = p.vth_tc * (temp_k_ - phys::kRoomTempK);
  t.width_m = m.width_m;
  t.vt_v = phys::thermal_voltage(temp_k_);
  t.sub_scale_a = p.i0_sub * m.width_m * t.vt_v * t.vt_v;
  t.n_vt_v = p.n_sub * t.vt_v;
  return t;
}

double DeviceModel::vth_v(const Mosfet& m, double vds_v) const {
  return terms(m).vth_v(vds_v);
}

double DeviceModel::ion_a(const Mosfet& m) const {
  const DeviceParams& p = params(m.type, m.vt);
  const double overdrive = vdd_v_ - vth_v(m, vdd_v_);
  if (overdrive <= 0.0) return 0.0;
  return drive_scale_ * p.k_ion * m.width_m * std::pow(overdrive, p.alpha);
}

double DeviceModel::eff_resistance_ohm(const Mosfet& m) const {
  const double ion = ion_a(m);
  if (ion <= 0.0) {
    throw std::domain_error("device has no drive (overdrive <= 0)");
  }
  return kReffFactor * vdd_v_ / ion;
}

double DeviceModel::subthreshold_a(const Mosfet& m, double vgs_v,
                                   double vds_v) const {
  const DeviceTerms t = terms(m);
  return t.subthreshold_a(vgs_v, vds_v, t.vth_v(vds_v));
}

double DeviceModel::ioff_a(const Mosfet& m) const {
  return subthreshold_a(m, 0.0, vdd_v_);
}

double DeviceModel::gate_leak_a(const Mosfet& m, double vox_v) const {
  if (vox_v <= 0.0 || m.width_m <= 0.0) return 0.0;
  const DeviceParams& p = params(m.type, m.vt);
  const double area = m.width_m * lgate_m_;
  const double ratio = vox_v / vdd_v_;
  return p.jg_ref * area * ratio * ratio *
         std::exp(p.gamma_g * (vox_v - vdd_v_));
}

double DeviceModel::gate_cap_f(const Mosfet& m) const {
  return params(m.type, m.vt).cgate_per_m * m.width_m;
}

double DeviceModel::drain_cap_f(const Mosfet& m) const {
  return params(m.type, m.vt).cdrain_per_m * m.width_m;
}

}  // namespace lain::tech
