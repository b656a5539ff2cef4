// builder.hpp — shared netlist assembly for the crossbar schemes.
//
// Every scheme is assembled from the same physical pieces; what
// differs is (a) the dual-Vt assignment, (b) the presence of keeper /
// precharge devices, and (c) flat vs segmented organization:
//
//   flat (SC, DFC, DPC):     one mux cell per (output, bit):
//                            (ports-1) grant pass transistors share
//                            node A -> keeper -> I1 -> I2 -> out wire
//                            [+ precharge pFET on the out wire for DPC]
//   segmented (SDFC, SDPC):  one *crossing cell* per (input, output,
//                            bit): 1 pass transistor + downsized
//                            driver; column wire split into `ports`
//                            segments joined by transmission gates;
//                            per-cell sleep, per-segment precharge
//                            (SDPC drops the keeper entirely).
//
// The builders produce both the representative *output slice* netlist
// (one output port, one bit) and the *input cell* netlist (one input
// port, one bit: port driver + row wire switches).  Characterization
// scales these by flit_bits x ports and adds control overhead.

#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "xbar/scheme.hpp"
#include "xbar/spec.hpp"

namespace lain::xbar {

// Dual-Vt assignment for every device role in a cell.  This is the
// scheme's design signature (what Figs 1-3 shade as "high Vt").
struct VtMap {
  tech::VtClass pass = tech::VtClass::kNominal;
  tech::VtClass keeper = tech::VtClass::kNominal;
  tech::VtClass i1_n = tech::VtClass::kNominal;
  tech::VtClass i1_p = tech::VtClass::kNominal;
  tech::VtClass i2_n = tech::VtClass::kNominal;
  tech::VtClass i2_p = tech::VtClass::kNominal;
  tech::VtClass sleep_n = tech::VtClass::kNominal;
  tech::VtClass precharge_p = tech::VtClass::kNominal;
  tech::VtClass input_drv_n = tech::VtClass::kNominal;
  tech::VtClass input_drv_p = tech::VtClass::kNominal;
  tech::VtClass segment_tg = tech::VtClass::kNominal;
  bool has_keeper = true;
  bool has_precharge = false;
};

// Returns the scheme's Vt map at the given driver-slack level.
// `full_slack` marks segmented cells whose downstream path is short
// enough that *all* driver devices may be high-Vt (Sec 2.3/2.4).
VtMap scheme_vt_map(Scheme s, bool full_slack = false);

// Handles into one mux / crossing cell.
struct CellHandles {
  std::vector<circuit::NodeId> inputs;   // data inputs (pass sources)
  std::vector<circuit::NodeId> grants;   // grant gates
  circuit::NodeId node_a = circuit::kNoNode;  // shared mux node (Fig 1 "A")
  circuit::NodeId node_b = circuit::kNoNode;  // I1 output / I2 input
  circuit::NodeId out = circuit::kNoNode;     // I2 output (drives wire)
  std::vector<circuit::DeviceId> pass_devices;
  circuit::DeviceId keeper = -1;
  circuit::DeviceId i1_n = -1, i1_p = -1, i2_n = -1, i2_p = -1;
  circuit::DeviceId sleep = -1;
  circuit::DeviceId precharge = -1;
  // Tri-state enable (segmented crossing cells only): when the cell is
  // not granted, its output driver is isolated from the shared column
  // through the enable stack — a parked cell must not fight the
  // granted one, and the series-OFF stack adds the stack effect to the
  // parked cell's leakage.
  circuit::NodeId drive_en = circuit::kNoNode;
  circuit::NodeId drive_en_b = circuit::kNoNode;
  circuit::DeviceId en_n = -1, en_p = -1;
  bool tri_state = false;
};

// A representative output slice: one output port, one bit.
struct OutputSlice {
  circuit::Netlist nl;
  // One sleep signal for flat slices; one per crossing cell for the
  // segmented schemes (per-segment standby, Fig 3).
  std::vector<circuit::NodeId> sleep_signals;
  circuit::NodeId precharge_signal = circuit::kNoNode; // active-low (pFET gate)
  std::vector<CellHandles> cells;  // 1 (flat) or ports (segmented)
  // Transmission-gate enable nodes (en, en_b) per boundary, segmented
  // schemes only.
  std::vector<circuit::NodeId> tg_enables;
  std::vector<circuit::NodeId> tg_enables_b;
  // Segment boundary transmission gates along the output column
  // (segmented schemes only); tg_n/tg_p pairs, enables tied to sleep
  // domain logic nodes.
  std::vector<circuit::DeviceId> segment_tgs;
  std::vector<circuit::NodeId> segment_nodes;  // column wire segment nodes
  circuit::NodeId out = circuit::kNoNode;      // port-side end of column
};

// A representative input cell: one input port, one bit (port driver +
// row-wire segment switches for segmented schemes).
struct InputCell {
  circuit::Netlist nl;
  circuit::NodeId precharge_signal = circuit::kNoNode;  // SDPC rows only
  circuit::NodeId data_in = circuit::kNoNode;  // driver input
  circuit::NodeId wire = circuit::kNoNode;     // first driven row segment
  circuit::DeviceId drv_n = -1, drv_p = -1;
  std::vector<circuit::DeviceId> segment_tgs;
  std::vector<circuit::NodeId> segment_nodes;
  std::vector<circuit::NodeId> tg_enables;
  std::vector<circuit::NodeId> tg_enables_b;
};

// Cell builder shared by the flat and segmented slices.  `n_pass` is
// the number of grant pass transistors, `drive_scale` downsizes the
// driver chain (segmented cells), `suffix` names the nodes/devices.
// When `out_node` is provided the cell's driver output is homed on it
// (used to tie segmented crossing cells directly to their column
// segment); otherwise a fresh OUT node is created.
CellHandles add_mux_cell(circuit::Netlist& nl, const CrossbarSpec& spec,
                         const VtMap& vt, int n_pass, double drive_scale,
                         circuit::NodeId sleep_signal,
                         circuit::NodeId precharge_signal,
                         const std::string& suffix,
                         circuit::NodeId out_node = circuit::kNoNode,
                         bool tri_state = false);

// Drive-strength scale of segmented crossing-cell drivers relative to
// the flat output driver (full size: the tri-state stack already costs
// drive, and the worst path still spans the whole column).
inline constexpr double kSegmentDriveScale = 1.0;

// Assembles the flat output slice used by SC/DFC/DPC.
OutputSlice build_flat_slice(const CrossbarSpec& spec, const VtMap& vt);

// Assembles the segmented output slice used by SDFC/SDPC.
// `full_slack_halves` = number of wire halves whose cells get the
// full-slack Vt map (all driver devices high-Vt).
OutputSlice build_segmented_slice(const CrossbarSpec& spec, Scheme scheme,
                                  int full_slack_halves);

// Input-side cell (same for flat schemes; segmented adds row TGs).
InputCell build_input_cell(const CrossbarSpec& spec, Scheme scheme);

// Dispatch: representative slice for any scheme.  The one place each
// segmented scheme's full-slack half count is chosen.
OutputSlice build_output_slice(const CrossbarSpec& spec, Scheme scheme);

}  // namespace lain::xbar
