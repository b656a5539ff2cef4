// Structural tests: the generated netlists must match the schematics
// of Figs 1-3 (device inventory, roles, dual-Vt assignment).

#include "xbar/builder.hpp"

#include <gtest/gtest.h>

namespace lain::xbar {
namespace {

using circuit::DeviceRole;
using tech::VtClass;

TEST(Builder, ScSliceMatchesFig1AllNominal) {
  const CrossbarSpec spec = table1_spec();
  const OutputSlice s = build_output_slice(spec, Scheme::kSC);
  // Fig 1: N1..N4 pass devices, keeper P1, sleep N5, I1+I2 drivers.
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPassTransistor), 4u);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kKeeper), 1u);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kSleep), 1u);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kDriverPull), 4u);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPrecharge), 0u);
  // SC = single threshold: zero high-Vt devices.
  EXPECT_EQ(s.nl.count_devices(VtClass::kHigh), 0u);
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_FALSE(s.cells[0].tri_state);
}

TEST(Builder, DfcStaggeredAssignment) {
  const OutputSlice s = build_output_slice(table1_spec(), Scheme::kDFC);
  // Same circuit as SC...
  EXPECT_EQ(s.nl.device_count(),
            build_output_slice(table1_spec(), Scheme::kSC).nl.device_count());
  // ...with the keeper, I1's NMOS and N5 high-Vt.
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kKeeper, VtClass::kHigh), 1u);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kSleep, VtClass::kHigh), 1u);
  const circuit::Device& i1n =
      s.nl.device(s.cells[0].i1_n);
  EXPECT_EQ(i1n.mos.vt, VtClass::kHigh);
  // I2's PMOS must stay nominal (it still drives the LH transition).
  EXPECT_EQ(s.nl.device(s.cells[0].i2_p).mos.vt, VtClass::kNominal);
  // Pass devices stay nominal (critical path).
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPassTransistor, VtClass::kHigh),
            0u);
}

TEST(Builder, DpcAddsPrechargeAndHighVtPullup) {
  const OutputSlice s = build_output_slice(table1_spec(), Scheme::kDPC);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPrecharge), 1u);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPrecharge, VtClass::kHigh), 1u);
  // The precharge hides LH: I2 PMOS and the pass devices go high-Vt.
  EXPECT_EQ(s.nl.device(s.cells[0].i2_p).mos.vt, VtClass::kHigh);
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPassTransistor, VtClass::kHigh),
            4u);
  // I2 NMOS stays nominal: the HL data path still needs speed.
  EXPECT_EQ(s.nl.device(s.cells[0].i2_n).mos.vt, VtClass::kNominal);
  EXPECT_NE(s.precharge_signal, circuit::kNoNode);
}

TEST(Builder, SdfcSegmentedStructure) {
  const OutputSlice s = build_output_slice(table1_spec(), Scheme::kSDFC);
  // Two wire halves, each with its own tri-stated crossing cell and
  // per-half sleep; one boundary transmission gate.
  ASSERT_EQ(s.cells.size(), 2u);
  EXPECT_EQ(s.sleep_signals.size(), 2u);
  EXPECT_EQ(s.segment_tgs.size(), 2u);  // NMOS + PMOS of the TG
  EXPECT_EQ(s.segment_nodes.size(), 2u);
  EXPECT_TRUE(s.cells[0].tri_state);
  EXPECT_TRUE(s.cells[1].tri_state);
  // The 4 inputs split 2/2 across the halves.
  EXPECT_EQ(s.cells[0].inputs.size(), 2u);
  EXPECT_EQ(s.cells[1].inputs.size(), 2u);
  // Boundary switch is high-Vt.
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kSegmentSwitch, VtClass::kHigh),
            2u);
  // Near half (cell 1) has full slack: its I2 NMOS is high-Vt while
  // the far half keeps it nominal.
  EXPECT_EQ(s.nl.device(s.cells[1].i2_n).mos.vt, VtClass::kHigh);
  EXPECT_EQ(s.nl.device(s.cells[0].i2_n).mos.vt, VtClass::kNominal);
  // No precharge in SDFC.
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPrecharge), 0u);
}

TEST(Builder, SdpcDropsKeeperPrechargesSegments) {
  const OutputSlice s = build_output_slice(table1_spec(), Scheme::kSDPC);
  // Sec 2.4: no level restoration requirement -> no keepers at all.
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kKeeper), 0u);
  // Per-segment precharge on both halves.
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kPrecharge), 2u);
  // All driver transistors high-Vt (both halves have full slack).
  EXPECT_EQ(s.nl.count_devices(DeviceRole::kDriverPull),
            s.nl.count_devices(DeviceRole::kDriverPull, VtClass::kHigh));
}

TEST(Builder, HighVtWidthGrowsAcrossSchemes) {
  const CrossbarSpec spec = table1_spec();
  auto high_vt_width = [&](Scheme s) {
    return build_output_slice(spec, s).nl.total_width_m(VtClass::kHigh);
  };
  const double sc = high_vt_width(Scheme::kSC);
  const double dfc = high_vt_width(Scheme::kDFC);
  const double dpc = high_vt_width(Scheme::kDPC);
  EXPECT_EQ(sc, 0.0);
  EXPECT_GT(dfc, 0.0);
  EXPECT_GT(dpc, dfc);
}

TEST(Builder, InputCellFlatVsSegmented) {
  const CrossbarSpec spec = table1_spec();
  const InputCell flat = build_input_cell(spec, Scheme::kSC);
  EXPECT_EQ(flat.segment_nodes.size(), 1u);
  EXPECT_TRUE(flat.segment_tgs.empty());
  const InputCell seg = build_input_cell(spec, Scheme::kSDFC);
  EXPECT_EQ(seg.segment_nodes.size(), 2u);
  EXPECT_EQ(seg.segment_tgs.size(), 2u);
  // SDPC precharges the rows too.
  const InputCell sdpc = build_input_cell(spec, Scheme::kSDPC);
  EXPECT_NE(sdpc.precharge_signal, circuit::kNoNode);
  EXPECT_EQ(sdpc.nl.count_devices(DeviceRole::kPrecharge), 2u);
}

TEST(Builder, MuxCellValidation) {
  circuit::Netlist nl;
  const auto sleep = nl.add_node("S");
  EXPECT_THROW(add_mux_cell(nl, table1_spec(), scheme_vt_map(Scheme::kSC), 0,
                            1.0, sleep, circuit::kNoNode, "_x"),
               std::invalid_argument);
  EXPECT_THROW(add_mux_cell(nl, table1_spec(), scheme_vt_map(Scheme::kSC), 2,
                            0.0, sleep, circuit::kNoNode, "_x"),
               std::invalid_argument);
}

TEST(Builder, DispatchCoversAllSchemes) {
  for (Scheme s : all_schemes()) {
    const OutputSlice slice = build_output_slice(table1_spec(), s);
    EXPECT_GT(slice.nl.device_count(), 0u) << scheme_name(s);
    EXPECT_EQ(is_precharged(s),
              slice.nl.count_devices(DeviceRole::kPrecharge) > 0)
        << scheme_name(s);
    EXPECT_EQ(is_segmented(s), slice.cells.size() == 2u) << scheme_name(s);
  }
}

}  // namespace
}  // namespace lain::xbar
