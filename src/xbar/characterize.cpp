#include "xbar/characterize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "circuit/delay.hpp"
#include "circuit/energy.hpp"
#include "circuit/gates.hpp"
#include "circuit/leakage.hpp"
#include "circuit/rctree.hpp"
#include "tech/units.hpp"

namespace lain::xbar {
namespace {

using circuit::NodeVoltages;
using circuit::RCTree;
using circuit::Stage;
using tech::DeviceModel;
using tech::DeviceType;
using tech::Mosfet;
using tech::VtClass;

// Global delay-model slope factor: folds in input-ramp degradation and
// the difference between Elmore and measured 50 % points.  Fitted once
// against the SC column of Table 1 (compare with `lain_bench table1`).
constexpr double kDelayFit = 1.56;

// Short-circuit current and local clocking overhead on top of the
// switched-capacitance energy (standard 25-40 % uplift at slow edges).
constexpr double kShortCircuitOverhead = 1.35;

// Sleep-transition energy derating (latch restore, local clock ripple)
// on top of the explicitly tracked node energies.
constexpr double kSleepPenaltyFit = 1.4;

// Wiring overhead on control lines (sleep / precharge / grant): route
// capacitance on top of the gate loads they drive.
constexpr double kCtrlWiringOverhead = 1.3;

// Activity of grant / segment-enable lines (route changes are per
// packet, not per cycle).
constexpr double kGrantActivity = 0.05;

Mosfet nmos(VtClass vt, double w) { return {DeviceType::kNmos, vt, w}; }
Mosfet pmos(VtClass vt, double w) { return {DeviceType::kPmos, vt, w}; }

struct Ctx {
  CrossbarSpec spec;
  const tech::TechNode* node;
  DeviceModel model;
  Floorplan fp;

  explicit Ctx(const CrossbarSpec& s)
      : spec(s),
        node(&tech::itrs_node(s.node)),
        model(*node, s.temp_k),
        fp(s, *node) {}
};

// ---------------------------------------------------------------------
// Capacitance bookkeeping
// ---------------------------------------------------------------------

double node_a_cap_f(const Ctx& c, const VtMap& vt, int n_pass, double scale) {
  const DeviceSizing& sz = c.spec.sizing;
  double cap = n_pass * c.model.drain_cap_f(nmos(vt.pass, sz.pass_width_m));
  if (vt.has_keeper) {
    cap += c.model.drain_cap_f(pmos(vt.keeper, sz.keeper_width_m));
  }
  cap += c.model.drain_cap_f(nmos(vt.sleep_n, sz.sleep_width_m));
  cap += c.model.gate_cap_f(nmos(vt.i1_n, sz.drv1_wn_m * scale));
  cap += c.model.gate_cap_f(pmos(vt.i1_p, sz.drv1_wp_m * scale));
  return cap;
}

double node_b_cap_f(const Ctx& c, const VtMap& vt, double scale) {
  const DeviceSizing& sz = c.spec.sizing;
  double cap = c.model.drain_cap_f(nmos(vt.i1_n, sz.drv1_wn_m * scale)) +
               c.model.drain_cap_f(pmos(vt.i1_p, sz.drv1_wp_m * scale)) +
               c.model.gate_cap_f(nmos(vt.i2_n, sz.drv2_wn_m * scale)) +
               c.model.gate_cap_f(pmos(vt.i2_p, sz.drv2_wp_m * scale));
  if (vt.has_keeper) {
    cap += c.model.gate_cap_f(pmos(vt.keeper, sz.keeper_width_m));
  }
  return cap;
}

// Receiving latch/buffer at the far end of the output wire.
double receiver_cap_f(const Ctx& c) {
  const DeviceSizing& sz = c.spec.sizing;
  return c.model.gate_cap_f(nmos(VtClass::kNominal, sz.input_drv_wn_m)) +
         c.model.gate_cap_f(pmos(VtClass::kNominal, sz.input_drv_wp_m));
}

// Output-driver (and precharge) junction load at the wire root.
double out_root_cap_f(const Ctx& c, const VtMap& vt, double scale,
                      bool with_precharge, double pre_width) {
  const DeviceSizing& sz = c.spec.sizing;
  double cap = c.model.drain_cap_f(nmos(vt.i2_n, sz.drv2_wn_m * scale)) +
               c.model.drain_cap_f(pmos(vt.i2_p, sz.drv2_wp_m * scale));
  if (with_precharge) {
    cap += c.model.drain_cap_f(pmos(vt.precharge_p, pre_width));
  }
  return cap;
}

double tg_junction_cap_f(const Ctx& c, const VtMap& vt) {
  const double w = c.spec.sizing.segment_switch_width_m;
  return c.model.drain_cap_f(nmos(vt.segment_tg, w)) +
         c.model.drain_cap_f(pmos(vt.segment_tg, w));
}

double tg_series_r_ohm(const Ctx& c, const VtMap& vt) {
  const double w = c.spec.sizing.segment_switch_width_m;
  const double rn = c.model.eff_resistance_ohm(nmos(vt.segment_tg, w));
  const double rp = c.model.eff_resistance_ohm(pmos(vt.segment_tg, w));
  return rn * rp / (rn + rp);
}

// ---------------------------------------------------------------------
// Inverter switching threshold and crossing factors
// ---------------------------------------------------------------------

double inverter_vm_v(const Ctx& c, const Mosfet& n, const Mosfet& p) {
  const double vdd = c.model.vdd_v();
  const auto& pn = c.model.params(DeviceType::kNmos, n.vt);
  const auto& pp = c.model.params(DeviceType::kPmos, p.vt);
  const double vtn = c.model.vth_v(n, vdd);
  const double vtp = c.model.vth_v(p, vdd);
  auto imbalance = [&](double v) {
    const double odn = std::max(v - vtn, 0.0);
    const double odp = std::max(vdd - v - vtp, 0.0);
    return pn.k_ion * n.width_m * std::pow(odn, pn.alpha) -
           pp.k_ion * p.width_m * std::pow(odp, pp.alpha);
  };
  double lo = 0.0, hi = vdd;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (imbalance(mid) < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// Delay factor for an exponential *fall* from v0 to the receiver's
// switching threshold vm, relative to the 50 % convention.
double fall_crossing_factor(double v0, double vm) {
  if (vm <= 0.0 || vm >= v0) throw std::domain_error("bad crossing levels");
  return std::log(v0 / vm) / std::log(2.0);
}

// Delay factor for an exponential *rise* toward v_inf (possibly a
// degraded high) crossing vm.  If vm approaches v_inf the keeper has
// to complete the transition; clamp to keep the model finite.
double rise_crossing_factor(double v_inf, double vm) {
  if (v_inf <= 0.0) throw std::domain_error("bad rise asymptote");
  const double vm_eff = std::min(vm, 0.93 * v_inf);
  return std::log(v_inf / (v_inf - vm_eff)) / std::log(2.0);
}

// ---------------------------------------------------------------------
// Delay
// ---------------------------------------------------------------------

struct DelayPair {
  double hl_s = 0.0;
  double lh_s = 0.0;
};

// Input row wire with a pass-transistor tap at each output column.
// Segmented: split in two at mid-span by the boundary switch; the
// worst path crosses into the far half.
RCTree make_input_tree(const Ctx& c, const VtMap& vt, bool segmented,
                       int* target_out) {
  RCTree t;
  const int P = c.spec.ports;
  const double pass_tap =
      c.model.drain_cap_f(nmos(vt.pass, c.spec.sizing.pass_width_m));
  const double drv_junction =
      c.model.drain_cap_f(nmos(vt.input_drv_n, c.spec.sizing.input_drv_wn_m)) +
      c.model.drain_cap_f(pmos(vt.input_drv_p, c.spec.sizing.input_drv_wp_m));
  t.add_cap(0, drv_junction);
  int node = 0;
  if (!segmented) {
    for (int k = 0; k < P; ++k) {
      node = t.add_wire(node, c.fp.wire(), c.fp.span_m() / P, 4);
      t.add_cap(node, pass_tap);
    }
    *target_out = node;
    return t;
  }
  const int near = (P + 1) / 2;
  node = t.add_wire(node, c.fp.wire(), c.fp.span_m() / 2, 4);
  t.add_cap(node, near * pass_tap);
  node = t.add_child(node, tg_series_r_ohm(c, vt), tg_junction_cap_f(c, vt));
  node = t.add_wire(node, c.fp.wire(), c.fp.span_m() / 2, 4);
  t.add_cap(node, (P - near) * pass_tap);
  *target_out = node;
  return t;
}

// Output column wire.  Segmented worst case: the far half's cell
// drives through the boundary switch into the near half (which also
// carries the idle near cell's tri-stated junctions).
RCTree make_output_tree(const Ctx& c, const VtMap& vt, bool segmented,
                        int* target_out) {
  RCTree t;
  const DeviceSizing& sz = c.spec.sizing;
  if (!segmented) {
    t.add_cap(0, out_root_cap_f(c, vt, 1.0, vt.has_precharge,
                                sz.precharge_width_m));
    const int end = t.add_wire(0, c.fp.wire(), c.fp.span_m(), 8);
    t.add_cap(end, receiver_cap_f(c));
    *target_out = end;
    return t;
  }
  const double half_junction = out_root_cap_f(
      c, vt, kSegmentDriveScale, vt.has_precharge, sz.precharge_seg_width_m);
  t.add_cap(0, half_junction);  // far cell's own junctions
  int node = t.add_wire(0, c.fp.wire(), c.fp.span_m() / 2, 4);
  node = t.add_child(node, tg_series_r_ohm(c, vt), tg_junction_cap_f(c, vt));
  node = t.add_wire(node, c.fp.wire(), c.fp.span_m() / 2, 4);
  t.add_cap(node, half_junction + receiver_cap_f(c));
  *target_out = node;
  return t;
}

DelayPair compute_delay(const Ctx& c, Scheme scheme) {
  const bool segmented = is_segmented(scheme);
  const bool precharged = is_precharged(scheme);
  const VtMap vt = scheme_vt_map(scheme, false);
  const DeviceSizing& sz = c.spec.sizing;
  const double scale = segmented ? kSegmentDriveScale : 1.0;
  // Segmented cells serve the inputs landing in their wire half; the
  // worst (far) cell carries ceil((P-1)/2) pass devices.
  const int n_pass = segmented ? (c.spec.ports - 1 + 1) / 2 : c.spec.ports - 1;

  int in_target = 0, out_target = 0;
  const RCTree tree_in = make_input_tree(c, vt, segmented, &in_target);
  const RCTree tree_out = make_output_tree(c, vt, segmented, &out_target);

  const Mosfet pass = nmos(vt.pass, sz.pass_width_m);
  const Mosfet i1n = nmos(vt.i1_n, sz.drv1_wn_m * scale);
  const Mosfet i1p = pmos(vt.i1_p, sz.drv1_wp_m * scale);
  const Mosfet i2n = nmos(vt.i2_n, sz.drv2_wn_m * scale);
  const Mosfet i2p = pmos(vt.i2_p, sz.drv2_wp_m * scale);
  const Mosfet in_dn = nmos(vt.input_drv_n, sz.input_drv_wn_m);
  const Mosfet in_dp = pmos(vt.input_drv_p, sz.input_drv_wp_m);

  const double vdd = c.model.vdd_v();
  const double vm_i1 = inverter_vm_v(c, i1n, i1p);
  const double c_a = node_a_cap_f(c, vt, n_pass, scale);
  const double c_b = node_b_cap_f(c, vt, scale);

  // Keeper contention on node A's falling edge (ratioed fight).
  double contention = 1.0;
  if (vt.has_keeper) {
    const double i_pass = c.model.ion_a(pass);
    const double i_keeper =
        c.model.ion_a(pmos(vt.keeper, sz.keeper_width_m));
    contention = circuit::keeper_contention_slowdown(i_pass, i_keeper);
  }

  DelayPair d;
  {
    // High -> Low: input falls, A falls (fighting the keeper), B
    // rises through I1's PMOS, the wire is discharged by I2's NMOS.
    std::vector<Stage> st;
    st.push_back({"in_drv", c.model.eff_resistance_ohm(in_dn), 0.0, &tree_in,
                  in_target, 1.0, 1.0});
    st.push_back({"pass_fall", c.model.eff_resistance_ohm(pass), c_a, nullptr,
                  0, contention, fall_crossing_factor(vdd, vm_i1)});
    st.push_back({"i1_rise", c.model.eff_resistance_ohm(i1p), c_b, nullptr, 0,
                  1.0, 1.0});
    // Segmented drivers are tri-stated: the 2x-width enable device adds
    // half the driver's resistance in series.
    const double r_i2n =
        c.model.eff_resistance_ohm(i2n) * (segmented ? 4.0 / 3.0 : 1.0);
    st.push_back({"i2_fall", r_i2n, 0.0, &tree_out, out_target, 1.0, 1.0});
    d.hl_s = circuit::path_delay_s(st) * kDelayFit;
  }

  if (precharged) {
    // Low -> High is the precharge phase: the pFET(s) restore the
    // wire during the negative clock phase.
    const double pre_w =
        segmented ? sz.precharge_seg_width_m : sz.precharge_width_m;
    const Mosfet pre = pmos(vt.precharge_p, pre_w);
    if (segmented) {
      // The two halves precharge in parallel while isolated: one half
      // wire plus its boundary junction load.
      RCTree seg;
      seg.add_cap(0, out_root_cap_f(c, vt, kSegmentDriveScale, true,
                                    sz.precharge_seg_width_m));
      const int end = seg.add_wire(0, c.fp.wire(), c.fp.span_m() / 2, 4);
      seg.add_cap(end, tg_junction_cap_f(c, vt) + receiver_cap_f(c));
      d.lh_s = seg.elmore_delay_s(end, c.model.eff_resistance_ohm(pre)) *
               kDelayFit;
    } else {
      d.lh_s = tree_out.elmore_delay_s(out_target,
                                       c.model.eff_resistance_ohm(pre)) *
               kDelayFit;
    }
  } else {
    // Low -> High through the data path: degraded rise through the
    // NMOS pass device, I1 falls (its NMOS is the high-Vt device in
    // the dual-Vt schemes), I2's PMOS charges the wire.
    const double v_deg = circuit::pass_degraded_high_v(c.model, pass);
    std::vector<Stage> st;
    st.push_back({"in_drv", c.model.eff_resistance_ohm(in_dp), 0.0, &tree_in,
                  in_target, 1.0, 1.0});
    st.push_back({"pass_rise", c.model.eff_resistance_ohm(pass), c_a, nullptr,
                  0, 1.0, rise_crossing_factor(v_deg, vm_i1)});
    st.push_back({"i1_fall", c.model.eff_resistance_ohm(i1n), c_b, nullptr, 0,
                  1.0, 1.0});
    const double r_i2p =
        c.model.eff_resistance_ohm(i2p) * (segmented ? 4.0 / 3.0 : 1.0);
    st.push_back({"i2_rise", r_i2p, 0.0, &tree_out, out_target, 1.0, 1.0});
    d.lh_s = circuit::path_delay_s(st) * kDelayFit;
  }
  return d;
}

// ---------------------------------------------------------------------
// Leakage scenarios
// ---------------------------------------------------------------------

// The functions below build the logic states characterize() solves;
// compute_leakage() weights the solved powers into the leakage set.

// Flat slice: one mux cell drives the full output wire.
NodeVoltages flat_slice_state(const Ctx& c, const OutputSlice& s,
                              bool granted, int d_granted, int d_others,
                              bool standby) {
  NodeVoltages nv(s.nl, c.model.vdd_v());
  const CellHandles& cell = s.cells.front();
  const int P_1 = static_cast<int>(cell.grants.size());
  for (int k = 0; k < P_1; ++k) {
    nv.set_logic(cell.grants[static_cast<size_t>(k)],
                 granted && k == 0 && !standby);
    const bool in_high = standby ? false : (k == 0 ? d_granted : d_others);
    nv.set_logic(cell.inputs[static_cast<size_t>(k)], in_high);
  }
  const bool a_high = standby ? false : d_granted;
  nv.set_logic(cell.node_a, a_high);
  nv.set_logic(cell.node_b, !a_high);
  nv.set_logic(cell.out, a_high);
  nv.set_logic(s.sleep_signals.front(), standby);
  if (s.precharge_signal != circuit::kNoNode) {
    nv.set_logic(s.precharge_signal, true);  // deactivated (pFET off)
  }
  return nv;
}

// Segmented slice: the cell of one wire half drives; the other half's
// cell is parked in per-segment standby (Sec 2.3's "higher probability
// that some segments can be put in standby").  active_half: 0 = far
// (crosses the boundary switch), 1 = near (boundary open).
NodeVoltages seg_slice_state(const Ctx& c, const OutputSlice& s,
                             int active_half, int d_granted, int d_others,
                             bool standby, bool idle_ungated) {
  NodeVoltages nv(s.nl, c.model.vdd_v());
  const int H = static_cast<int>(s.cells.size());
  for (int h = 0; h < H; ++h) {
    const CellHandles& cell = s.cells[static_cast<size_t>(h)];
    // When idling un-gated, the last-granted cell keeps its enable (it
    // holds the column at the last datum) while the other half stays
    // parked — the state a real crossbar rests in between flits.
    const bool is_active = !standby && h == active_half;
    const bool parked = standby || h != active_half;
    for (std::size_t k = 0; k < cell.grants.size(); ++k) {
      const bool granted = is_active && !idle_ungated && k == 0;
      nv.set_logic(cell.grants[k], granted);
      nv.set_logic(cell.inputs[k],
                   standby ? false : (granted ? d_granted : d_others));
    }
    const bool a_high = parked ? false : (is_active ? d_granted : d_others);
    nv.set_logic(cell.node_a, a_high);
    nv.set_logic(cell.node_b, !a_high);
    nv.set_logic(s.sleep_signals[static_cast<size_t>(h)], parked);
    // Tri-state enables: only the granted cell drives the column.
    if (cell.tri_state) {
      nv.set_logic(cell.drive_en, is_active);
      nv.set_logic(cell.drive_en_b, !is_active);
    }
  }
  // Boundary switch: closed when the far half must reach the port (or
  // when idling un-gated); open otherwise, isolating the idle half.
  const bool en = !standby && (idle_ungated || active_half == 0);
  for (std::size_t i = 0; i < s.tg_enables.size(); ++i) {
    nv.set_logic(s.tg_enables[i], en);
    nv.set_logic(s.tg_enables_b[i], !en);
  }
  if (s.precharge_signal != circuit::kNoNode) {
    nv.set_logic(s.precharge_signal, true);
  }
  // Segment nodes stay internal: the solver finds driven/floating
  // levels through the ON transistors.
  return nv;
}

NodeVoltages input_cell_state(const Ctx& c, const InputCell& cell, int d,
                              bool standby, bool connected) {
  NodeVoltages nv(cell.nl, c.model.vdd_v());
  const bool wire_high = standby ? false : d;
  nv.set_logic(cell.data_in, !wire_high);
  nv.set_logic(cell.wire, wire_high);
  for (std::size_t i = 0; i < cell.tg_enables.size(); ++i) {
    const bool en = connected && !standby;
    nv.set_logic(cell.tg_enables[i], en);
    nv.set_logic(cell.tg_enables_b[i], !en);
  }
  if (cell.precharge_signal != circuit::kNoNode) {
    nv.set_logic(cell.precharge_signal, true);
  }
  return nv;
}

struct LeakageSet {
  double active_w = 0.0;   // full crossbar
  double idle_w = 0.0;
  double standby_w = 0.0;
};

// `solve(state)` returns a state's leakage power (W); LeakageState
// says which netlist the state belongs to.
template <typename Solve>
LeakageSet compute_leakage(const Ctx& c, Scheme scheme,
                           const OutputSlice& slice, const InputCell& in_cell,
                           Solve&& solve) {
  const double p = c.spec.static_probability;
  const double q = 1.0 - p;
  const int cells = c.spec.flit_bits * c.spec.ports;  // per side
  auto slice_w = [&](NodeVoltages nv) {
    return solve(LeakageState{false, std::move(nv)});
  };
  auto in_cell_w = [&](NodeVoltages nv) {
    return solve(LeakageState{true, std::move(nv)});
  };

  auto mix4 = [&](auto&& f) {
    // E over granted data dg and background data do, independent with
    // static probability p.
    return p * (p * f(1, 1) + q * f(1, 0)) +
           q * (p * f(0, 1) + q * f(0, 0));
  };

  LeakageSet out;
  double slice_active, slice_idle, slice_standby;
  if (!is_segmented(scheme)) {
    slice_active = mix4([&](int dg, int dn) {
      return slice_w(flat_slice_state(c, slice, true, dg, dn, false));
    });
    slice_idle = mix4([&](int dg, int dn) {
      return slice_w(flat_slice_state(c, slice, false, dg, dn, false));
    });
    slice_standby = slice_w(flat_slice_state(c, slice, false, 0, 0, true));
  } else {
    // Average over which wire half holds the granted input (weighted
    // by how many input rows land in each half).
    const int n_inputs = c.spec.ports - 1;
    const double w_far = static_cast<double>((n_inputs + 1) / 2) / n_inputs;
    const double act_far = mix4([&](int dg, int dn) {
      return slice_w(seg_slice_state(c, slice, 0, dg, dn, false, false));
    });
    const double act_near = mix4([&](int dg, int dn) {
      return slice_w(seg_slice_state(c, slice, 1, dg, dn, false, false));
    });
    slice_active = w_far * act_far + (1.0 - w_far) * act_near;
    slice_idle = mix4([&](int dg, int dn) {
      return slice_w(seg_slice_state(c, slice, 0, dg, dn, false, true));
    });
    slice_standby =
        slice_w(seg_slice_state(c, slice, 0, 0, 0, true, false));
  }

  const double in_active =
      p * in_cell_w(input_cell_state(c, in_cell, 1, false, true)) +
      q * in_cell_w(input_cell_state(c, in_cell, 0, false, true));
  const double in_idle = in_active;
  const double in_standby =
      in_cell_w(input_cell_state(c, in_cell, 0, true, false));

  out.active_w = cells * (slice_active + in_active);
  out.idle_w = cells * (slice_idle + in_idle);
  out.standby_w = cells * (slice_standby + in_standby);
  return out;
}

// ---------------------------------------------------------------------
// Dynamic power / sleep penalty
// ---------------------------------------------------------------------

struct DynamicSet {
  double data_w = 0.0;
  double control_w = 0.0;
  double sleep_entry_j = 0.0;
  double wakeup_j = 0.0;
};

DynamicSet compute_dynamic(const Ctx& c, Scheme scheme) {
  const bool segmented = is_segmented(scheme);
  const bool precharged = is_precharged(scheme);
  const VtMap vt = scheme_vt_map(scheme, false);
  const DeviceSizing& sz = c.spec.sizing;
  const double scale = segmented ? kSegmentDriveScale : 1.0;
  const int n_pass = segmented ? (c.spec.ports - 1 + 1) / 2 : c.spec.ports - 1;
  const int P = c.spec.ports;
  const int bits = c.spec.flit_bits;
  const double vdd = c.model.vdd_v();
  const double f = c.spec.freq_hz;
  const double p = c.spec.static_probability;
  const double a_rand = circuit::random_alpha01(p);
  const double a_pre = circuit::precharge_alpha01(p);
  const double frac = c.fp.two_way_traversed_fraction();

  const double wire_cap = c.fp.full_wire_cap_f();
  const double pass_tap = c.model.drain_cap_f(nmos(vt.pass, sz.pass_width_m));
  const double drv_junction =
      c.model.drain_cap_f(nmos(vt.input_drv_n, sz.input_drv_wn_m)) +
      c.model.drain_cap_f(pmos(vt.input_drv_p, sz.input_drv_wp_m));
  const double c_a = node_a_cap_f(c, vt, n_pass, scale);
  const double c_b = node_b_cap_f(c, vt, scale);
  const double rx = receiver_cap_f(c);

  double c_in, c_out;  // switched capacitance per (bit, port) wire
  if (!segmented) {
    c_in = wire_cap + P * pass_tap + drv_junction;
    c_out = wire_cap +
            out_root_cap_f(c, vt, 1.0, precharged, sz.precharge_width_m) + rx;
  } else {
    const double tg_j = tg_junction_cap_f(c, vt);
    const double half_junction = out_root_cap_f(c, vt, scale, precharged,
                                                sz.precharge_seg_width_m);
    // Only the traversed fraction of the wire (plus its attached
    // junctions) switches; the driving half's own junctions and the
    // receiver always do.
    c_in = frac * (wire_cap + P * pass_tap + tg_j) + drv_junction;
    c_out = frac * (wire_cap + tg_j + half_junction) + half_junction + rx;
  }

  DynamicSet d;
  double e_cycle = 0.0;  // J per cycle per (bit, port)
  // Input rows: SDPC precharges rows (pay a recharge per 0-datum);
  // everything else sees random data transitions.
  if (scheme == Scheme::kSDPC) {
    e_cycle += c_in * a_pre * vdd * vdd;
  } else {
    e_cycle += c_in * a_rand * vdd * vdd;
  }
  // Mux node and driver internal nodes follow the granted data.
  e_cycle += (c_a + c_b) * a_rand * vdd * vdd;
  // Output columns.
  e_cycle += c_out * (precharged ? a_pre : a_rand) * vdd * vdd;
  // Precharge control line toggles every cycle while the output is in
  // use (gate load of every precharge pFET plus routing).
  if (precharged) {
    const double pre_w = segmented ? sz.precharge_seg_width_m * 2
                                   : sz.precharge_width_m;
    const double pre_gates =
        c.model.gate_cap_f(pmos(vt.precharge_p, pre_w)) * kCtrlWiringOverhead;
    e_cycle += pre_gates * 1.0 * vdd * vdd;
    if (scheme == Scheme::kSDPC) {
      // Row precharge pFETs as well (Fig 3b).
      e_cycle += c.model.gate_cap_f(
                     pmos(vt.precharge_p, sz.precharge_seg_width_m * 2)) *
                 kCtrlWiringOverhead * vdd * vdd;
    }
  }
  d.data_w = bits * P * e_cycle * f * kShortCircuitOverhead;

  // Grant lines (one per input per output, loaded by a pass gate per
  // bit) and segment-enable lines switch per packet.
  {
    const double grant_line =
        bits * c.model.gate_cap_f(nmos(vt.pass, sz.pass_width_m)) *
        kCtrlWiringOverhead;
    double ctrl = P * P * grant_line * kGrantActivity * vdd * vdd * f;
    if (segmented) {
      // One boundary-switch enable pair per row and per column wire,
      // plus the per-cell drive enables.
      const double en_line =
          bits * c.model.gate_cap_f(nmos(vt.segment_tg,
                                         sz.segment_switch_width_m)) *
          2.0 * kCtrlWiringOverhead;
      ctrl += 2.0 * P * en_line * kGrantActivity * vdd * vdd * f;
    }
    d.control_w = ctrl;
  }

  // Sleep entry / wakeup energy.  Only energy the circuit would *not*
  // have spent anyway counts.
  //
  //   * Precharged schemes park in the evaluated-0 state that the
  //     ordinary precharge/eval cycle regenerates for free, so their
  //     whole penalty is toggling the sleep line — this is why DPC and
  //     SDPC reach a Minimum Idle Time of 1 cycle in Table 1.
  //   * Feedback schemes force the mux/driver nodes to the parked
  //     state and must re-establish them on wake; the output wire is
  //     forced low and, if the pre-sleep and post-wake data are both
  //     1 (probability p^2, half the wires having leaked anyway),
  //     pays an extra recharge.
  {
    const int cells_per_slice = segmented ? 2 : 1;
    const double sleep_line =
        bits * P * cells_per_slice *
        c.model.gate_cap_f(nmos(vt.sleep_n, sz.sleep_width_m)) *
        kCtrlWiringOverhead;
    if (precharged) {
      d.sleep_entry_j = sleep_line * vdd * vdd * kSleepPenaltyFit;
      d.wakeup_j = 0.0;
    } else {
      const double c_a_total = bits * P * c_a;
      const double c_b_total = bits * P * c_b;
      const double wire_restore = 0.5 * p * p * bits * P * c_out;
      d.sleep_entry_j =
          (sleep_line + p * c_b_total) * vdd * vdd * kSleepPenaltyFit;
      d.wakeup_j =
          (p * c_a_total + wire_restore) * vdd * vdd * kSleepPenaltyFit;
    }
  }
  return d;
}

}  // namespace

double relative_saving(double base, double value) {
  if (base <= 0.0) throw std::domain_error("baseline must be positive");
  return 1.0 - value / base;
}

double delay_penalty(const Characterization& base, const Characterization& c) {
  const double ratio = c.critical_delay_s() / base.critical_delay_s();
  return std::max(ratio - 1.0, 0.0);
}

Characterization characterize(const CrossbarSpec& spec, Scheme scheme) {
  spec.validate();
  const Ctx ctx(spec);

  Characterization r;
  r.scheme = scheme;

  const DelayPair d = compute_delay(ctx, scheme);
  r.delay_hl_s = d.hl_s;
  r.delay_lh_s = d.lh_s;

  // One solver per netlist, so states sharing a boundary state share
  // its node solve.
  const OutputSlice slice = build_output_slice(spec, scheme);
  const InputCell in_cell = build_input_cell(spec, scheme);
  circuit::LeakageSolver slice_solver(slice.nl, ctx.model);
  circuit::LeakageSolver in_cell_solver(in_cell.nl, ctx.model);
  const LeakageSet leak = compute_leakage(
      ctx, scheme, slice, in_cell, [&](const LeakageState& state) {
        circuit::LeakageSolver& solver =
            state.input_cell ? in_cell_solver : slice_solver;
        return solver.solve(state.voltages).total_w();
      });
  r.active_leakage_w = leak.active_w;
  r.idle_leakage_w = leak.idle_w;
  r.standby_leakage_w = leak.standby_w;

  const DynamicSet dyn = compute_dynamic(ctx, scheme);
  r.dynamic_power_w = dyn.data_w;
  r.control_power_w = dyn.control_w;
  r.sleep_entry_energy_j = dyn.sleep_entry_j;
  r.wakeup_energy_j = dyn.wakeup_j;
  r.total_power_w = dyn.data_w + dyn.control_w + leak.active_w;

  const double saving_per_cycle = r.standby_saving_per_cycle_j(spec.freq_hz);
  if (saving_per_cycle <= 0.0) {
    r.min_idle_cycles = 999;  // gating never pays off
  } else {
    r.min_idle_cycles = std::max(
        1, static_cast<int>(std::ceil(r.sleep_penalty_j() / saving_per_cycle)));
  }
  return r;
}

std::vector<LeakageState> leakage_states(const CrossbarSpec& spec,
                                         Scheme scheme) {
  spec.validate();
  const Ctx ctx(spec);
  std::vector<LeakageState> states;
  compute_leakage(ctx, scheme, build_output_slice(spec, scheme),
                  build_input_cell(spec, scheme),
                  [&](LeakageState state) {
                    states.push_back(std::move(state));
                    return 0.0;
                  });
  return states;
}

}  // namespace lain::xbar
