#include "circuit/leakage.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "tech/itrs.hpp"
#include "xbar/characterize.hpp"

namespace lain::circuit {
namespace {

using tech::DeviceModel;
using tech::DeviceType;
using tech::Mosfet;
using tech::VtClass;

// The solver keeps references to its netlist and model: temporaries
// must not bind.
static_assert(
    std::is_constructible_v<LeakageSolver, Netlist&, const DeviceModel&>);
static_assert(
    !std::is_constructible_v<LeakageSolver, Netlist, const DeviceModel&>);
static_assert(
    !std::is_constructible_v<LeakageSolver, const Netlist&, DeviceModel>);
static_assert(!std::is_constructible_v<LeakageSolver, Netlist, DeviceModel>);

class LeakageTest : public ::testing::Test {
 protected:
  const tech::TechNode& node = tech::itrs_node(tech::Node::k45nm);
  DeviceModel model{node, 383.0};
  Mosfet n1um{DeviceType::kNmos, VtClass::kNominal, 1e-6};
};

TEST_F(LeakageTest, OffInverterLeaksItsOffDevice) {
  // Inverter with input high: NMOS on (out=0), PMOS off and leaking.
  Netlist nl;
  const NodeId in = nl.add_node("IN");
  const NodeId out = nl.add_node("OUT");
  const Mosfet p{DeviceType::kPmos, VtClass::kNominal, 2e-6};
  nl.add_device("pu", p, DeviceRole::kDriverPull, in, out, nl.vdd());
  nl.add_device("pd", n1um, DeviceRole::kDriverPull, in, out, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(in, true);
  nv.set_logic(out, false);
  LeakageSolver solver(nl, model);
  const LeakageResult res = solver.solve(nv);
  // Subthreshold power should match the PMOS's Ioff * Vdd closely.
  EXPECT_NEAR(res.subthreshold_w, model.ioff_a(p) * model.vdd_v(),
              0.05 * res.subthreshold_w);
  EXPECT_GT(res.gate_w, 0.0);
}

TEST_F(LeakageTest, StackEffect) {
  // Two series OFF NMOS leak much less than one OFF NMOS: the solver
  // must find the intermediate node's equilibrium.
  Netlist single, stacked;
  {
    const NodeId top = single.add_node("TOP");
    single.add_device("m", n1um, DeviceRole::kOther, single.gnd(), top,
                      single.gnd());
    NodeVoltages nv(single, model.vdd_v());
    nv.set_logic(top, true);
    // TOP at Vdd, gate 0 -> full Ioff.
  }
  const NodeId top1 = single.find_node("TOP");
  NodeVoltages nv1(single, model.vdd_v());
  nv1.set_logic(top1, true);
  const double leak1 =
      LeakageSolver(single, model).solve(nv1).subthreshold_w;

  const NodeId top2 = stacked.add_node("TOP");
  const NodeId mid = stacked.add_node("MID", NodeKind::kInternal);
  stacked.add_device("hi", n1um, DeviceRole::kOther, stacked.gnd(), top2, mid);
  stacked.add_device("lo", n1um, DeviceRole::kOther, stacked.gnd(), mid,
                     stacked.gnd());
  NodeVoltages nv2(stacked, model.vdd_v());
  nv2.set_logic(top2, true);
  const LeakageResult res2 = LeakageSolver(stacked, model).solve(nv2);

  EXPECT_LT(res2.subthreshold_w, leak1 / 3.0);  // classic stack effect
  // The intermediate node settles a few hundred mV above ground.
  const double vmid = res2.node_voltage_v[static_cast<size_t>(mid)];
  EXPECT_GT(vmid, 0.02);
  EXPECT_LT(vmid, 0.5);
}

TEST_F(LeakageTest, OnDeviceDrivesInternalNodeToRail) {
  Netlist nl;
  const NodeId mid = nl.add_node("MID", NodeKind::kInternal);
  // ON NMOS to GND (gate at Vdd), OFF NMOS to a high node: mid ~ 0.
  const NodeId hi = nl.add_node("HI");
  nl.add_device("on", n1um, DeviceRole::kOther, nl.vdd(), mid, nl.gnd());
  nl.add_device("off", n1um, DeviceRole::kOther, nl.gnd(), hi, mid);
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(hi, true);
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  EXPECT_LT(res.node_voltage_v[static_cast<size_t>(mid)], 0.05);
}

TEST_F(LeakageTest, HighVtCutsLeakage) {
  auto make = [&](VtClass vt) {
    Netlist nl;
    const NodeId top = nl.add_node("TOP");
    Mosfet m = n1um;
    m.vt = vt;
    nl.add_device("m", m, DeviceRole::kOther, nl.gnd(), top, nl.gnd());
    NodeVoltages nv(nl, model.vdd_v());
    nv.set_logic(top, true);
    return LeakageSolver(nl, model).solve(nv).subthreshold_w;
  };
  EXPECT_GT(make(VtClass::kNominal), 5.0 * make(VtClass::kHigh));
}

TEST_F(LeakageTest, UnsetSignalNodeThrows) {
  Netlist nl;
  const NodeId a = nl.add_node("A");
  nl.add_device("m", n1um, DeviceRole::kOther, nl.gnd(), a, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  EXPECT_THROW(LeakageSolver(nl, model).solve(nv), std::invalid_argument);
}

TEST_F(LeakageTest, FloatingNodeBetweenOffDevicesSettles) {
  // A wire segment isolated by OFF switches from Vdd-ish and GND-ish
  // drivers floats to an equilibrium strictly inside the rails.
  Netlist nl;
  const NodeId seg = nl.add_node("SEG", NodeKind::kInternal);
  const NodeId hi = nl.add_node("HI");
  const NodeId lo = nl.add_node("LO");
  nl.add_device("sw_hi", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), hi, seg);
  nl.add_device("sw_lo", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), seg, lo);
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(hi, true);
  nv.set_logic(lo, false);
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  const double v = res.node_voltage_v[static_cast<size_t>(seg)];
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, model.vdd_v());
}

TEST_F(LeakageTest, NoDoubleCountingInSeriesPath) {
  // Vdd -> off -> mid -> off -> GND carries ONE current; power must be
  // ~ I_path * Vdd, not 2x.
  Netlist nl;
  const NodeId mid = nl.add_node("MID", NodeKind::kInternal);
  const Mosfet p{DeviceType::kPmos, VtClass::kNominal, 1e-6};
  nl.add_device("top", p, DeviceRole::kOther, nl.vdd(), mid, nl.vdd());
  nl.add_device("bot", n1um, DeviceRole::kOther, nl.gnd(), mid, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  // Power equals the series current once (currents balance at mid).
  const double i_bot =
      res.device_sub_a[static_cast<size_t>(nl.find_device("bot"))];
  EXPECT_NEAR(res.subthreshold_w, i_bot * model.vdd_v(),
              0.02 * res.subthreshold_w);
}

TEST_F(LeakageTest, StackConvergesBeforeTheSweepCap) {
  Netlist nl;
  const NodeId top = nl.add_node("TOP");
  const NodeId mid = nl.add_node("MID", NodeKind::kInternal);
  nl.add_device("hi", n1um, DeviceRole::kOther, nl.gnd(), top, mid);
  nl.add_device("lo", n1um, DeviceRole::kOther, nl.gnd(), mid, nl.gnd());
  NodeVoltages nv(nl, model.vdd_v());
  nv.set_logic(top, true);
  const LeakageResult res = LeakageSolver(nl, model).solve(nv);
  EXPECT_GT(res.sweeps, 0);
  EXPECT_LT(res.sweeps, LeakageSolver::kMaxSweeps);
}

// Known non-convergence: SDPC's standby slice at the paper point is
// still moving a node by 0.25 mV in the sweep the cap ends it on.
TEST_F(LeakageTest, SdpcStandbyStopsAtTheSweepCap) {
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  const xbar::OutputSlice slice =
      xbar::build_output_slice(spec, xbar::Scheme::kSDPC);
  const DeviceModel paper(tech::itrs_node(spec.node), spec.temp_k);
  const NodeVoltages* standby = nullptr;
  const std::vector<xbar::LeakageState> states =
      xbar::leakage_states(spec, xbar::Scheme::kSDPC);
  for (const xbar::LeakageState& s : states) {
    if (!s.input_cell) standby = &s.voltages;  // the last slice state
  }
  ASSERT_NE(standby, nullptr);
  EXPECT_EQ(LeakageSolver(slice.nl, paper).solve(*standby).sweeps,
            LeakageSolver::kMaxSweeps);
}

TEST_F(LeakageTest, NoDriveDeviceThrowsOnlyWhenItConducts) {
  // Zero drive scale: every device has Ion = 0.
  const DeviceModel no_drive(node, 383.0, 0.0, 0.0, 1.0);
  Netlist nl;
  const NodeId g = nl.add_node("G");
  const NodeId top = nl.add_node("TOP");
  nl.add_device("m", n1um, DeviceRole::kOther, g, top, nl.gnd());
  LeakageSolver solver(nl, no_drive);  // never throws here
  NodeVoltages off(nl, model.vdd_v());
  off.set_logic(g, false);
  off.set_logic(top, true);
  EXPECT_NO_THROW(solver.solve(off));
  NodeVoltages on = off;
  on.set_logic(g, true);
  EXPECT_THROW(solver.solve(on), std::domain_error);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_bitwise_equal(const LeakageResult& a, const LeakageResult& b,
                          std::size_t state) {
  EXPECT_TRUE(same_bits(a.subthreshold_w, b.subthreshold_w)) << state;
  EXPECT_TRUE(same_bits(a.gate_w, b.gate_w)) << state;
  EXPECT_EQ(a.sweeps, b.sweeps) << state;
  for (const auto& [va, vb] :
       {std::pair{&a.device_sub_a, &b.device_sub_a},
        std::pair{&a.device_gate_a, &b.device_gate_a},
        std::pair{&a.node_voltage_v, &b.node_voltage_v}}) {
    ASSERT_EQ(va->size(), vb->size()) << state;
    for (std::size_t i = 0; i < va->size(); ++i) {
      EXPECT_TRUE(same_bits((*va)[i], (*vb)[i])) << state << " [" << i << "]";
    }
  }
}

// Every state characterize() visits, solved on one shared solver per
// netlist (forward and in reverse) and on a fresh solver per state:
// the memo must not change a single bit.
TEST(LeakageMemo, SharedSolverMatchesFreshSolverPerState) {
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  const DeviceModel model(tech::itrs_node(spec.node), spec.temp_k);
  for (xbar::Scheme scheme : {xbar::Scheme::kSDFC, xbar::Scheme::kSDPC}) {
    SCOPED_TRACE(std::string(xbar::scheme_name(scheme)));
    const xbar::OutputSlice slice = xbar::build_output_slice(spec, scheme);
    const xbar::InputCell in_cell = xbar::build_input_cell(spec, scheme);
    const std::vector<xbar::LeakageState> states =
        xbar::leakage_states(spec, scheme);
    ASSERT_FALSE(states.empty());
    auto netlist = [&](const xbar::LeakageState& s) -> const Netlist& {
      return s.input_cell ? in_cell.nl : slice.nl;
    };

    std::vector<LeakageResult> fresh;
    for (const xbar::LeakageState& s : states) {
      fresh.push_back(LeakageSolver(netlist(s), model).solve(s.voltages));
    }
    LeakageSolver slice_fwd(slice.nl, model), cell_fwd(in_cell.nl, model);
    for (std::size_t i = 0; i < states.size(); ++i) {
      LeakageSolver& solver = states[i].input_cell ? cell_fwd : slice_fwd;
      expect_bitwise_equal(solver.solve(states[i].voltages), fresh[i], i);
    }
    LeakageSolver slice_rev(slice.nl, model), cell_rev(in_cell.nl, model);
    for (std::size_t i = states.size(); i-- > 0;) {
      LeakageSolver& solver = states[i].input_cell ? cell_rev : slice_rev;
      expect_bitwise_equal(solver.solve(states[i].voltages), fresh[i], i);
    }
  }
}

// A floating node between two OFF switches: changing any one of its
// boundary terminals (a far S/D node or a switch gate) moves it, so a
// state that differs there must miss the memo.
TEST_F(LeakageTest, BoundaryChangeMissesTheMemo) {
  Netlist nl;
  const NodeId seg = nl.add_node("SEG", NodeKind::kInternal);
  const NodeId hi = nl.add_node("HI");
  const NodeId lo = nl.add_node("LO");
  const NodeId g = nl.add_node("G");
  nl.add_device("sw_hi", n1um, DeviceRole::kSegmentSwitch, g, hi, seg);
  nl.add_device("sw_lo", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), seg,
                lo);
  NodeVoltages base(nl, model.vdd_v());
  base.set_logic(hi, true);
  base.set_logic(lo, false);
  base.set_logic(g, false);
  const std::size_t s = static_cast<std::size_t>(seg);
  for (const auto& [node, voltage] :
       {std::pair{hi, 0.6}, std::pair{lo, 0.2}, std::pair{g, 0.1}}) {
    NodeVoltages moved = base;
    moved.set(node, voltage);
    LeakageSolver shared(nl, model);
    const LeakageResult first = shared.solve(base);
    const LeakageResult second = shared.solve(moved);
    const LeakageResult fresh = LeakageSolver(nl, model).solve(moved);
    EXPECT_NE(second.node_voltage_v[s], first.node_voltage_v[s]) << node;
    expect_bitwise_equal(second, fresh, static_cast<std::size_t>(node));
  }
}

// More boundary states than the memo holds: every solve, including a
// repeat of the first state after the memo started over, stays exact.
TEST_F(LeakageTest, MemoStaysExactPastItsCapacity) {
  Netlist nl;
  const NodeId seg = nl.add_node("SEG", NodeKind::kInternal);
  const NodeId hi = nl.add_node("HI");
  nl.add_device("sw_hi", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), hi, seg);
  nl.add_device("sw_lo", n1um, DeviceRole::kSegmentSwitch, nl.gnd(), seg,
                nl.gnd());
  LeakageSolver shared(nl, model);
  const std::size_t states = LeakageSolver::kMemoCapacity + 5;
  for (std::size_t i = 0; i <= states; ++i) {
    NodeVoltages nv(nl, model.vdd_v());
    nv.set(hi, 0.3 + 0.005 * static_cast<double>(i % states));
    expect_bitwise_equal(shared.solve(nv), LeakageSolver(nl, model).solve(nv),
                         i);
  }
}

}  // namespace
}  // namespace lain::circuit
