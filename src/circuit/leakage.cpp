#include "circuit/leakage.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace lain::circuit {
namespace {

// Fraction of the gate area that still tunnels when the channel is off
// (gate-to-drain/source overlap, edge direct tunneling).
constexpr double kOverlapFraction = 0.08;

// Bisection steps per node balance, and the Gauss-Seidel tolerance on
// the largest node update of a sweep.
constexpr int kBisectionSteps = 60;
constexpr double kSweepTolerance = 1e-7;

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

}  // namespace

NodeVoltages::NodeVoltages(const Netlist& nl, double vdd_v)
    : v_(nl.node_count(), kUnsetVoltage), vdd_v_(vdd_v) {
  v_.at(static_cast<size_t>(nl.gnd())) = 0.0;
  v_.at(static_cast<size_t>(nl.vdd())) = vdd_v;
}

void NodeVoltages::set(NodeId node, double voltage_v) {
  if (voltage_v < 0.0) throw std::invalid_argument("voltage must be >= 0");
  v_.at(static_cast<size_t>(node)) = voltage_v;
}

void NodeVoltages::set_logic(NodeId node, bool high) {
  set(node, high ? vdd_v_ : 0.0);
}

LeakageSolver::LeakageSolver(const Netlist& nl, const tech::DeviceModel& model)
    : nl_(nl), model_(model), first_incidence_(nl.node_count() + 1, 0) {
  devices_.reserve(nl.device_count());
  for (std::size_t i = 0; i < nl.device_count(); ++i) {
    const Device& d = nl.device(static_cast<DeviceId>(i));
    SolverDevice dev;
    dev.gate = static_cast<std::size_t>(d.gate);
    dev.drain = static_cast<std::size_t>(d.drain);
    dev.source = static_cast<std::size_t>(d.source);
    dev.nmos = d.mos.type == tech::DeviceType::kNmos;
    dev.terms = model.terms(d.mos);
    dev.reff_ohm =
        model.ion_a(d.mos) > 0.0 ? model.eff_resistance_ohm(d.mos) : 0.0;
    devices_.push_back(dev);
    ++first_incidence_[dev.drain + 1];
    ++first_incidence_[dev.source + 1];
  }
  for (std::size_t n = 0; n < nl.node_count(); ++n) {
    first_incidence_[n + 1] += first_incidence_[n];
  }
  // Device order within each node's run, drain before source: the
  // order the node's currents are summed in.
  incidences_.resize(first_incidence_.back());
  std::vector<std::size_t> fill(first_incidence_.begin(),
                                first_incidence_.end() - 1);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const SolverDevice& dev = devices_[i];
    for (const std::size_t node : {dev.drain, dev.source}) {
      incidences_[fill[node]++] = {i, node == dev.drain};
    }
  }
}

// Current through one MOSFET given terminal voltages, positive from
// the high S/D terminal to the low one.  ON devices conduct through
// their effective resistance; OFF devices leak subthreshold current.
double LeakageSolver::channel_current(std::size_t device, double vg,
                                      double va, double vb) const {
  const SolverDevice& dev = devices_[device];
  // va/vb are the two S/D terminals; orient so current flows hi -> lo.
  const double hi = std::max(va, vb);
  const double lo = std::min(va, vb);
  const double vds = hi - lo;
  if (vds <= 0.0) return 0.0;
  // Effective gate overdrive reference: NMOS source is the low
  // terminal, PMOS source the high one.
  const double vgs = dev.nmos ? vg - lo : hi - vg;
  const double vth = dev.terms.vth_v(vds);
  if (vgs > vth) {
    // ON: resistive conduction.  Scale resistance with remaining
    // overdrive so partially-on devices conduct weakly.  A device
    // without drive throws from eff_resistance_ohm.
    const double r_full =
        dev.reff_ohm > 0.0
            ? dev.reff_ohm
            : model_.eff_resistance_ohm(
                  nl_.device(static_cast<DeviceId>(device)).mos);
    const double od_full = model_.vdd_v() - vth;
    const double scale = std::max((vgs - vth) / std::max(od_full, 1e-9), 1e-3);
    return vds / (r_full / scale);
  }
  return dev.terms.subthreshold_a(vgs, vds, vth);
}

// Signed current into the node at one drain/source incidence.
double LeakageSolver::current_into(const Incidence& at,
                                   const std::vector<double>& v) const {
  const SolverDevice& dev = devices_[at.device];
  const double vd = v[dev.drain];
  const double vs = v[dev.source];
  const double i = channel_current(at.device, v[dev.gate], vd, vs);
  // Current flows from the higher S/D terminal to the lower one.
  const double v_this = at.at_drain ? vd : vs;
  const double v_other = at.at_drain ? vs : vd;
  if (v_this > v_other) return -i;  // current leaves this node
  if (v_this < v_other) return +i;  // current enters this node
  return 0.0;
}

double LeakageSolver::solve_node(std::size_t node,
                                 std::vector<double>& v) const {
  // Net current into `node` is monotonically decreasing in its voltage
  // (raising the node increases outflow / decreases inflow), so
  // bisection on [0, Vdd] finds the balance point.
  double lo = 0.0, hi = model_.vdd_v();
  const Incidence* first = incidences_.data() + first_incidence_[node];
  const Incidence* last = incidences_.data() + first_incidence_[node + 1];
  auto net_current = [&](double vn) {
    v[node] = vn;
    double sum = 0.0;
    for (const Incidence* at = first; at != last; ++at) {
      sum += current_into(*at, v);
    }
    return sum;
  };
  const double f_lo = net_current(lo);
  if (f_lo <= 0.0) {  // even at 0 V current flows out: node sits at GND
    v[node] = 0.0;
    return 0.0;
  }
  const double f_hi = net_current(hi);
  if (f_hi >= 0.0) {  // even at Vdd current flows in: node sits at Vdd
    v[node] = hi;
    return hi;
  }
  for (int iter = 0; iter < kBisectionSteps; ++iter) {
    const double mid = 0.5 * (lo + hi);
    // Once the midpoint rounds onto an end the step leaves (lo, hi)
    // as it was, and so would every later one: stop.
    if (net_current(mid) > 0.0) {
      if (mid == lo) break;
      lo = mid;
    } else {
      if (mid == hi) break;
      hi = mid;
    }
  }
  const double result = 0.5 * (lo + hi);
  v[node] = result;
  return result;
}

// Gauss-Seidel relaxation over the unknown nodes; returns the sweeps
// run.
int LeakageSolver::relax(const std::vector<std::size_t>& unknown,
                         std::vector<double>& v) const {
  int sweeps = 0;
  while (sweeps < kMaxSweeps) {
    ++sweeps;
    double max_delta = 0.0;
    for (const std::size_t n : unknown) {
      const double before = v[n];
      const double after = solve_node(n, v);
      max_delta = std::max(max_delta, std::fabs(after - before));
    }
    if (max_delta < kSweepTolerance) break;
  }
  return sweeps;
}

LeakageResult LeakageSolver::solve(const NodeVoltages& state) {
  std::vector<double> v = state.raw();
  std::vector<std::size_t> unknown;
  for (std::size_t i = 0; i < nl_.node_count(); ++i) {
    const Node& n = nl_.node(static_cast<NodeId>(i));
    if (v[i] >= 0.0) continue;
    if (n.kind == NodeKind::kInternal) {
      unknown.push_back(i);
      v[i] = 0.0;  // initial guess
    } else {
      throw std::invalid_argument("signal node left unset: " + n.name);
    }
  }

  // Memo key: the unknown nodes, then every terminal voltage of the
  // devices incident to them (unknown ones hold the initial guess).
  std::vector<std::uint64_t> key{unknown.size()};
  key.insert(key.end(), unknown.begin(), unknown.end());
  for (const std::size_t n : unknown) {
    for (std::size_t k = first_incidence_[n]; k < first_incidence_[n + 1];
         ++k) {
      const SolverDevice& dev = devices_[incidences_[k].device];
      key.push_back(bits_of(v[dev.gate]));
      key.push_back(bits_of(v[dev.drain]));
      key.push_back(bits_of(v[dev.source]));
    }
  }

  LeakageResult res;
  auto hit = std::find_if(memo_.begin(), memo_.end(),
                          [&](const MemoEntry& e) { return e.key == key; });
  if (hit != memo_.end()) {
    for (std::size_t k = 0; k < unknown.size(); ++k) {
      v[unknown[k]] = hit->node_v[k];
    }
    res.sweeps = hit->sweeps;
  } else {
    res.sweeps = relax(unknown, v);
    if (memo_.size() == kMemoCapacity) memo_.clear();
    MemoEntry& entry = memo_.emplace_back();
    entry.key = std::move(key);
    for (const std::size_t n : unknown) entry.node_v.push_back(v[n]);
    entry.sweeps = res.sweeps;
  }

  res.node_voltage_v = v;
  res.device_sub_a.resize(nl_.device_count(), 0.0);
  res.device_gate_a.resize(nl_.device_count(), 0.0);
  const double vdd = model_.vdd_v();

  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const SolverDevice& dev = devices_[i];
    const tech::Mosfet& mos = nl_.device(static_cast<DeviceId>(i)).mos;
    const double vg = v[dev.gate];
    const double vd_ = v[dev.drain];
    const double vs = v[dev.source];
    const double hi = std::max(vd_, vs);
    const double lo = std::min(vd_, vs);
    const double vds = hi - lo;
    const double vgs = dev.nmos ? vg - lo : hi - vg;
    const double vth = dev.terms.vth_v(std::max(vds, 1e-6));
    const bool on = vgs > vth;

    if (!on && vds > 0.0) {
      res.device_sub_a[i] =
          dev.terms.subthreshold_a(vgs, vds, dev.terms.vth_v(vds));
    }

    // Gate leakage: full channel tunneling when ON, overlap (EDT)
    // component against each S/D terminal when OFF.
    double ig = 0.0;
    if (dev.nmos) {
      if (on) {
        ig = model_.gate_leak_a(mos, vg - lo);
      } else {
        ig = kOverlapFraction * (model_.gate_leak_a(mos, vg - vd_) +
                                 model_.gate_leak_a(mos, vg - vs) +
                                 model_.gate_leak_a(mos, vd_ - vg) +
                                 model_.gate_leak_a(mos, vs - vg));
      }
    } else {
      if (on) {
        ig = model_.gate_leak_a(mos, hi - vg);
      } else {
        ig = kOverlapFraction * (model_.gate_leak_a(mos, vd_ - vg) +
                                 model_.gate_leak_a(mos, vs - vg) +
                                 model_.gate_leak_a(mos, vg - vd_) +
                                 model_.gate_leak_a(mos, vg - vs));
      }
    }
    res.device_gate_a[i] = ig;
    res.gate_w += ig * vdd;
  }

  // Subthreshold power: sum the current entering every grounded-level
  // sink once (avoids double counting series stacks).
  double sink_current = 0.0;
  for (std::size_t i = 0; i < nl_.node_count(); ++i) {
    if (v[i] > 1e-9) continue;  // only 0 V sinks
    for (std::size_t k = first_incidence_[i]; k < first_incidence_[i + 1];
         ++k) {
      const double into = current_into(incidences_[k], v);
      if (into > 0.0) sink_current += into;
    }
  }
  res.subthreshold_w = sink_current * vdd;
  return res;
}

}  // namespace lain::circuit
