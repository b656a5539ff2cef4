#include "xbar/builder.hpp"

#include <stdexcept>

namespace lain::xbar {

using circuit::DeviceRole;
using circuit::Netlist;
using circuit::NodeId;
using circuit::NodeKind;
using tech::DeviceType;
using tech::Mosfet;
using tech::VtClass;

VtMap scheme_vt_map(Scheme s, bool full_slack) {
  VtMap m;
  switch (s) {
    case Scheme::kSC:
      // Baseline: DFC circuit, single nominal Vt everywhere.
      m.has_keeper = true;
      m.has_precharge = false;
      break;
    case Scheme::kDFC:
      // Staggered-Vt favoring the High->Low output transition (the
      // parked state is A=0 / out=0): the devices that are OFF in the
      // parked state (I1 NMOS, keeper) go high-Vt.  I2's PMOS stays
      // nominal because the Low->High transition still needs it.
      m.keeper = VtClass::kHigh;
      m.i1_n = VtClass::kHigh;
      m.sleep_n = VtClass::kHigh;
      m.has_keeper = true;
      m.has_precharge = false;
      break;
    case Scheme::kDPC:
      // Precharge supplies the Low->High transition, so the entire
      // pull-up side can be high-Vt: I2 PMOS joins the high-Vt set and
      // the precharge pFET itself is high-Vt.  (Sec 2.2: asymmetric-Vt
      // leakage-aware inverters.)
      m.keeper = VtClass::kHigh;
      m.i1_n = VtClass::kHigh;
      m.i2_p = VtClass::kHigh;
      m.sleep_n = VtClass::kHigh;
      m.precharge_p = VtClass::kHigh;
      // Precharge removes the level-restoration constraint on the pass
      // devices (Sec 2.4), so they can absorb a small extra resistance
      // as high-Vt devices — this is why DPC's HL delay sits slightly
      // above DFC's in Table 1 (53.08 vs 51.87 ps) while its active
      // leakage saving is 4x larger.
      m.pass = VtClass::kHigh;
      // The precharge also hides the input-wire rise (the paper counts
      // DPC's LH as the precharge time), so the port driver's pull-up
      // may go high-Vt as well.
      m.input_drv_p = VtClass::kHigh;
      m.has_keeper = true;
      m.has_precharge = true;
      break;
    case Scheme::kSDFC:
      m = scheme_vt_map(Scheme::kDFC);
      // The boundary switch is barely on the critical path; high-Vt
      // keeps it from leaking across idle segments.
      m.segment_tg = VtClass::kHigh;
      // Sec 2.3: "the longer slack removes more transistors from the
      // critical path, allowing designers to use high Vt" — the slack
      // bought by segmentation is spent on the big pull-up devices,
      // which is why Table 1 charges SDFC a 17 % LH penalty (64.28 ps
      // vs SC's 54.87 ps) in exchange for its 42 % active-leakage cut.
      m.i2_p = VtClass::kHigh;
      if (full_slack) {
        // Near-half cells: short downstream path, everything high-Vt.
        m.pass = VtClass::kHigh;
        m.i1_p = VtClass::kHigh;
        m.i2_n = VtClass::kHigh;
      }
      break;
    case Scheme::kSDPC:
      m = scheme_vt_map(Scheme::kDPC);
      m.has_keeper = false;  // Sec 2.4: no level-restoration requirement
      m.segment_tg = VtClass::kHigh;
      // Sec 2.4: the longer slack allows all transistors in the
      // (shaded) output drivers to be high-Vt.
      if (full_slack) {
        m.i1_p = VtClass::kHigh;
        m.i2_n = VtClass::kHigh;
        m.pass = VtClass::kHigh;
      }
      // Rows are precharged as well (Fig 3b) -> input drivers only
      // ever pull down; their pull-up can be high-Vt.
      m.input_drv_p = VtClass::kHigh;
      break;
  }
  return m;
}

CellHandles add_mux_cell(Netlist& nl, const CrossbarSpec& spec,
                         const VtMap& vt, int n_pass, double drive_scale,
                         NodeId sleep_signal, NodeId precharge_signal,
                         const std::string& suffix, NodeId out_node,
                         bool tri_state) {
  if (n_pass < 1) throw std::invalid_argument("cell needs >= 1 pass device");
  if (drive_scale <= 0.0) {
    throw std::invalid_argument("drive_scale must be > 0");
  }
  const DeviceSizing& sz = spec.sizing;
  CellHandles c;

  c.node_a = nl.add_node("A" + suffix);
  c.node_b = nl.add_node("B" + suffix);
  c.out = (out_node != circuit::kNoNode) ? out_node
                                         : nl.add_node("OUT" + suffix);

  for (int k = 0; k < n_pass; ++k) {
    const std::string ks = suffix + "_" + std::to_string(k);
    const NodeId in = nl.add_node("IN" + ks);
    const NodeId grant = nl.add_node("GRANT" + ks);
    c.inputs.push_back(in);
    c.grants.push_back(grant);
    c.pass_devices.push_back(nl.add_device(
        "N_pass" + ks, Mosfet{DeviceType::kNmos, vt.pass, sz.pass_width_m},
        DeviceRole::kPassTransistor, grant, c.node_a, in));
  }

  if (vt.has_keeper) {
    c.keeper = nl.add_device(
        "P_keeper" + suffix,
        Mosfet{DeviceType::kPmos, vt.keeper, sz.keeper_width_m},
        DeviceRole::kKeeper, c.node_b, c.node_a, nl.vdd());
  }

  c.sleep = nl.add_device(
      "N_sleep" + suffix,
      Mosfet{DeviceType::kNmos, vt.sleep_n, sz.sleep_width_m},
      DeviceRole::kSleep, sleep_signal, c.node_a, nl.gnd());

  // Driver chain I1 -> I2 (Fig 1).
  c.i1_n = nl.add_device(
      "I1_n" + suffix,
      Mosfet{DeviceType::kNmos, vt.i1_n, sz.drv1_wn_m * drive_scale},
      DeviceRole::kDriverPull, c.node_a, c.node_b, nl.gnd());
  c.i1_p = nl.add_device(
      "I1_p" + suffix,
      Mosfet{DeviceType::kPmos, vt.i1_p, sz.drv1_wp_m * drive_scale},
      DeviceRole::kDriverPull, c.node_a, c.node_b, nl.vdd());
  if (!tri_state) {
    c.i2_n = nl.add_device(
        "I2_n" + suffix,
        Mosfet{DeviceType::kNmos, vt.i2_n, sz.drv2_wn_m * drive_scale},
        DeviceRole::kDriverPull, c.node_b, c.out, nl.gnd());
    c.i2_p = nl.add_device(
        "I2_p" + suffix,
        Mosfet{DeviceType::kPmos, vt.i2_p, sz.drv2_wp_m * drive_scale},
        DeviceRole::kDriverPull, c.node_b, c.out, nl.vdd());
  } else {
    // Tri-state output stage: enable devices (3x width to soften the
    // stack's resistance) isolate a non-granted crossing cell.
    c.tri_state = true;
    c.drive_en = nl.add_node("EN_DRV" + suffix);
    c.drive_en_b = nl.add_node("EN_DRV_B" + suffix);
    const NodeId mid_n = nl.add_node("MIDN" + suffix, NodeKind::kInternal);
    const NodeId mid_p = nl.add_node("MIDP" + suffix, NodeKind::kInternal);
    c.i2_n = nl.add_device(
        "I2_n" + suffix,
        Mosfet{DeviceType::kNmos, vt.i2_n, sz.drv2_wn_m * drive_scale},
        DeviceRole::kDriverPull, c.node_b, c.out, mid_n);
    c.en_n = nl.add_device(
        "I2_en_n" + suffix,
        Mosfet{DeviceType::kNmos, vt.i2_n, 3.0 * sz.drv2_wn_m * drive_scale},
        DeviceRole::kDriverPull, c.drive_en, mid_n, nl.gnd());
    c.i2_p = nl.add_device(
        "I2_p" + suffix,
        Mosfet{DeviceType::kPmos, vt.i2_p, sz.drv2_wp_m * drive_scale},
        DeviceRole::kDriverPull, c.node_b, c.out, mid_p);
    c.en_p = nl.add_device(
        "I2_en_p" + suffix,
        Mosfet{DeviceType::kPmos, vt.i2_p, 3.0 * sz.drv2_wp_m * drive_scale},
        DeviceRole::kDriverPull, c.drive_en_b, mid_p, nl.vdd());
  }

  if (vt.has_precharge && precharge_signal != circuit::kNoNode) {
    c.precharge = nl.add_device(
        "P_pre" + suffix,
        Mosfet{DeviceType::kPmos, vt.precharge_p, sz.precharge_width_m},
        DeviceRole::kPrecharge, precharge_signal, c.out, nl.vdd());
  }
  return c;
}

OutputSlice build_flat_slice(const CrossbarSpec& spec, const VtMap& vt) {
  spec.validate();
  OutputSlice s;
  s.sleep_signals.push_back(s.nl.add_node("SLEEP"));
  s.precharge_signal =
      vt.has_precharge ? s.nl.add_node("PRE_B") : circuit::kNoNode;
  s.cells.push_back(add_mux_cell(s.nl, spec, vt, spec.ports - 1, 1.0,
                                 s.sleep_signals.front(), s.precharge_signal,
                                 ""));
  s.out = s.cells.front().out;
  return s;
}

OutputSlice build_segmented_slice(const CrossbarSpec& spec, Scheme scheme,
                                  int full_slack_halves) {
  spec.validate();
  if (!is_segmented(scheme)) {
    throw std::invalid_argument("build_segmented_slice: flat scheme");
  }
  if (full_slack_halves < 0 || full_slack_halves > 2) {
    throw std::invalid_argument("full_slack_halves must be 0..2");
  }
  if (spec.ports < 3) {
    throw std::invalid_argument("segmented schemes need >= 3 ports");
  }
  const DeviceSizing& sz = spec.sizing;
  OutputSlice s;
  const bool pre = is_precharged(scheme);
  s.precharge_signal = pre ? s.nl.add_node("PRE_B") : circuit::kNoNode;

  // The column wire is split in two at mid-span (Fig 3: path 1 stays
  // within the near half, path 2 crosses the boundary switch).  Each
  // half carries a mux cell serving the input rows that land in it.
  // Segment nodes are internal: the solver determines the level of a
  // floating (isolated) half.
  s.segment_nodes.push_back(s.nl.add_node("SEG_far", NodeKind::kInternal));
  s.segment_nodes.push_back(s.nl.add_node("SEG_near", NodeKind::kInternal));

  const int n_inputs = spec.ports - 1;
  const int far_inputs = (n_inputs + 1) / 2;  // rows in the far half
  const int near_inputs = n_inputs - far_inputs;
  const int cell_inputs[2] = {far_inputs, near_inputs};
  for (int h = 0; h < 2; ++h) {
    // The near half (short downstream path, h=1) gets full slack
    // first; SDPC gives it to both halves (Sec 2.4).
    const bool full_slack = h >= 2 - full_slack_halves;
    const VtMap vt = scheme_vt_map(scheme, full_slack);
    // Per-half sleep (Fig 3): an idle half parks while the other
    // drives.
    s.sleep_signals.push_back(s.nl.add_node("SLEEP_h" + std::to_string(h)));
    // Cell-level precharge is suppressed: the segmented schemes place
    // their precharge pFETs per wire segment (Fig 3b), added below.
    s.cells.push_back(add_mux_cell(
        s.nl, spec, vt, cell_inputs[h], kSegmentDriveScale,
        s.sleep_signals.back(), circuit::kNoNode, "_h" + std::to_string(h),
        s.segment_nodes[static_cast<size_t>(h)], /*tri_state=*/true));
  }

  // Mid-span isolation transmission gate.
  const VtMap base_vt = scheme_vt_map(scheme, false);
  {
    const NodeId en = s.nl.add_node("EN_tg");
    const NodeId en_b = s.nl.add_node("ENB_tg");
    s.tg_enables.push_back(en);
    s.tg_enables_b.push_back(en_b);
    s.segment_tgs.push_back(s.nl.add_device(
        "TG_n",
        Mosfet{DeviceType::kNmos, base_vt.segment_tg,
               sz.segment_switch_width_m},
        DeviceRole::kSegmentSwitch, en, s.segment_nodes[0],
        s.segment_nodes[1]));
    s.segment_tgs.push_back(s.nl.add_device(
        "TG_p",
        Mosfet{DeviceType::kPmos, base_vt.segment_tg,
               sz.segment_switch_width_m},
        DeviceRole::kSegmentSwitch, en_b, s.segment_nodes[0],
        s.segment_nodes[1]));
  }

  // Per-segment precharge (Fig 3b: "pre" on every segment).
  if (pre) {
    for (int h = 0; h < 2; ++h) {
      s.nl.add_device("P_pre_seg" + std::to_string(h),
                      Mosfet{DeviceType::kPmos, base_vt.precharge_p,
                             sz.precharge_seg_width_m},
                      DeviceRole::kPrecharge, s.precharge_signal,
                      s.segment_nodes[static_cast<size_t>(h)], s.nl.vdd());
    }
  }

  s.out = s.segment_nodes.back();
  return s;
}

InputCell build_input_cell(const CrossbarSpec& spec, Scheme scheme) {
  spec.validate();
  const DeviceSizing& sz = spec.sizing;
  const VtMap vt = scheme_vt_map(scheme, false);
  InputCell c;
  c.precharge_signal = (scheme == Scheme::kSDPC)
                           ? c.nl.add_node("PRE_B")
                           : circuit::kNoNode;
  c.data_in = c.nl.add_node("DATA_IN");
  c.wire = c.nl.add_node("ROW0");
  c.drv_n = c.nl.add_device(
      "DRV_n", Mosfet{DeviceType::kNmos, vt.input_drv_n, sz.input_drv_wn_m},
      DeviceRole::kDriverPull, c.data_in, c.wire, c.nl.gnd());
  c.drv_p = c.nl.add_device(
      "DRV_p", Mosfet{DeviceType::kPmos, vt.input_drv_p, sz.input_drv_wp_m},
      DeviceRole::kDriverPull, c.data_in, c.wire, c.nl.vdd());
  c.segment_nodes.push_back(c.wire);
  if (is_segmented(scheme)) {
    // Two-way split of the row wire, mirroring the column (Fig 3).
    c.segment_nodes.push_back(c.nl.add_node("ROW_far", NodeKind::kInternal));
    const NodeId en = c.nl.add_node("EN_rtg");
    const NodeId en_b = c.nl.add_node("ENB_rtg");
    c.tg_enables.push_back(en);
    c.tg_enables_b.push_back(en_b);
    c.segment_tgs.push_back(c.nl.add_device(
        "RTG_n",
        Mosfet{DeviceType::kNmos, vt.segment_tg, sz.segment_switch_width_m},
        DeviceRole::kSegmentSwitch, en, c.segment_nodes[0],
        c.segment_nodes[1]));
    c.segment_tgs.push_back(c.nl.add_device(
        "RTG_p",
        Mosfet{DeviceType::kPmos, vt.segment_tg, sz.segment_switch_width_m},
        DeviceRole::kSegmentSwitch, en_b, c.segment_nodes[0],
        c.segment_nodes[1]));
  }
  // SDPC precharges the input rows as well (Fig 3b).
  if (c.precharge_signal != circuit::kNoNode) {
    for (std::size_t i = 0; i < c.segment_nodes.size(); ++i) {
      c.nl.add_device("P_pre_row" + std::to_string(i),
                      Mosfet{DeviceType::kPmos, vt.precharge_p,
                             sz.precharge_seg_width_m},
                      DeviceRole::kPrecharge, c.precharge_signal,
                      c.segment_nodes[i], c.nl.vdd());
    }
  }
  return c;
}

OutputSlice build_output_slice(const CrossbarSpec& spec, Scheme scheme) {
  switch (scheme) {
    case Scheme::kSC:
    case Scheme::kDFC:
    case Scheme::kDPC:
      return build_flat_slice(spec, scheme_vt_map(scheme));
    case Scheme::kSDFC:
      // Only the near half has the short downstream path and the slack
      // to absorb fully high-Vt drivers.
      return build_segmented_slice(spec, scheme, /*full_slack_halves=*/1);
    case Scheme::kSDPC:
      // Precharging frees that slack in both halves (Sec 2.4).
      return build_segmented_slice(spec, scheme, /*full_slack_halves=*/2);
  }
  throw std::invalid_argument("unknown scheme");
}

}  // namespace lain::xbar
