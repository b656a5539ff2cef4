// leakage.hpp — state-dependent leakage analysis with stack effect.
//
// Given a netlist and a logic state (voltages of all signal nodes),
// the solver:
//
//   1. solves the floating internal nodes (series-stack intermediate
//      nodes) by current balance — this is what produces the classic
//      *stack effect*: an intermediate node between two OFF devices
//      rises a few hundred mV, giving the bottom device negative Vgs
//      and the top device reduced Vds (less DIBL), cutting the stack's
//      leakage by roughly an order of magnitude;
//   2. evaluates every device's subthreshold current at the solved
//      voltages, plus gate (oxide tunneling) leakage — channel
//      component when ON, overlap/EDT component when OFF;
//   3. reports total leakage power and per-device breakdowns.
//
// This is the engine behind every "active leakage" / "standby leakage"
// number in the Table 1 reproduction: active states weight data
// polarities by the static probability; standby states are the parked
// states each scheme engineers (node A grounded, wire precharged, ...).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/netlist.hpp"
#include "tech/mosfet.hpp"

namespace lain::circuit {

// Voltage assignment per node.  Signal nodes must be set by the caller
// (use `kUnset` / helpers below); internal nodes may be left unset and
// are solved.  Rails are forced regardless of input.
inline constexpr double kUnsetVoltage = -1.0;

class NodeVoltages {
 public:
  NodeVoltages(const Netlist& nl, double vdd_v);

  void set(NodeId node, double voltage_v);
  void set_logic(NodeId node, bool high);
  double get(NodeId node) const { return v_.at(static_cast<size_t>(node)); }

  std::vector<double>& raw() { return v_; }
  const std::vector<double>& raw() const { return v_; }
  double vdd_v() const { return vdd_v_; }

 private:
  std::vector<double> v_;
  double vdd_v_;
};

struct LeakageResult {
  double subthreshold_w = 0.0;  // total subthreshold leakage power
  double gate_w = 0.0;          // total gate (oxide) leakage power
  std::vector<double> device_sub_a;   // per-device subthreshold current
  std::vector<double> device_gate_a;  // per-device gate current
  std::vector<double> node_voltage_v; // solved node voltages
  // Gauss-Seidel sweeps the node solve ran (a memo hit reports the
  // stored count).  LeakageSolver::kMaxSweeps means the cap, not the
  // tolerance, may have ended it.
  int sweeps = 0;

  double total_w() const { return subthreshold_w + gate_w; }
};

// Solves leakage states of one netlist under one device model.  Build
// one solver per netlist and reuse it for every state: the solver
// memoizes each node solution by its boundary state (below), so states
// that differ only away from the floating nodes solve them once.
//
// The node solve is Gauss-Seidel relaxation over the floating nodes,
// each balanced by bisection on [0, Vdd], for at most kMaxSweeps
// sweeps.  Its iterates read only the floating nodes and the fixed
// terminals of devices whose drain or source floats.  The memo key is
// the floating-node set plus the bit patterns of those terminals, so a
// hit returns the node voltages the relaxation would compute, bit for
// bit.  The leakage evaluation runs on every call.  The memo holds at
// most kMemoCapacity boundary states and starts over when full.
//
// Some states reach the sweep cap unconverged: at the Table 1 point,
// SDPC's standby slice still moves a node by 0.25 mV in sweep 100, and
// its near-half active states by 1 mV.  Raising the cap moves Table 1,
// so the cap is part of the model; LeakageResult::sweeps makes it
// visible.
//
// The solver keeps references to the netlist and the model, so it
// accepts neither as a temporary.
class LeakageSolver {
 public:
  static constexpr int kMaxSweeps = 100;
  static constexpr std::size_t kMemoCapacity = 64;

  LeakageSolver(const Netlist& nl, const tech::DeviceModel& model);
  LeakageSolver(Netlist&&, const tech::DeviceModel&) = delete;
  LeakageSolver(const Netlist&, tech::DeviceModel&&) = delete;
  LeakageSolver(Netlist&&, tech::DeviceModel&&) = delete;

  // Solves internal nodes and evaluates leakage.  Throws
  // std::invalid_argument if a signal node was left unset, and
  // std::domain_error if a device without drive conducts.
  LeakageResult solve(const NodeVoltages& state);

 private:
  // One netlist device (same index) with its model terms evaluated
  // once.
  struct SolverDevice {
    std::size_t gate = 0;
    std::size_t drain = 0;
    std::size_t source = 0;
    bool nmos = true;
    tech::DeviceTerms terms;
    double reff_ohm = 0.0;  // 0: no drive
  };
  // One device terminal (drain or source) at a node.
  struct Incidence {
    std::size_t device = 0;
    bool at_drain = false;
  };
  struct MemoEntry {
    std::vector<std::uint64_t> key;
    std::vector<double> node_v;  // solved voltages, in unknown order
    int sweeps = 0;
  };

  double channel_current(std::size_t device, double vg, double va,
                         double vb) const;
  double current_into(const Incidence& at,
                      const std::vector<double>& v) const;
  double solve_node(std::size_t node, std::vector<double>& v) const;
  int relax(const std::vector<std::size_t>& unknown,
            std::vector<double>& v) const;

  const Netlist& nl_;
  const tech::DeviceModel& model_;
  std::vector<SolverDevice> devices_;
  // Drain/source incidences per node, flattened: node n's run is
  // incidences_[first_incidence_[n] .. first_incidence_[n + 1]).
  std::vector<std::size_t> first_incidence_;
  std::vector<Incidence> incidences_;
  std::vector<MemoEntry> memo_;
};

}  // namespace lain::circuit
