// E10 — microbenchmarks of the library's hot paths: leakage solving,
// characterization, Elmore evaluation, arbiters and the cycle-accurate
// simulator kernel.
//
// Self-contained harness (no google-benchmark dependency): every
// benchmark is calibrated until it has run for --min-time-ms, then
// reported as ns/op.  Output is a text table by default, or a JSON
// document (--json) whose shape the --check gate consumes:
//
//   perf_micro --json --out bench/perf_baseline.json   # (re)record
//   perf_micro --check bench/perf_baseline.json --tolerance 5
//
// --check re-runs the benchmarks and fails (exit 1) when any one
// regresses beyond tolerance, or when the baseline names a benchmark
// that no longer exists — that is the CTest perf gate.  By default
// the gate is RELATIVE: every benchmark is normalized by the anchor
// benchmark (--anchor, default elmore_wire/64) before comparing, so
// what is gated is each hot path's cost *ratio* to a stable kernel
// (e.g. characterize/SC vs elmore) rather than machine-specific
// ns/op.  Absolute baseline numbers recorded on one host therefore
// gate correctly on any other — a uniformly faster or slower machine
// cancels out of the ratio.  `--anchor none` restores the absolute
// ns/op comparison.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/leakage.hpp"
#include "circuit/rctree.hpp"
#include "core/cli.hpp"
#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/reporting.hpp"
#include "core/telemetry.hpp"
#include "noc/arbiter.hpp"
#include "noc/sim.hpp"
#include "xbar/characterize.hpp"

using namespace lain;

namespace {

struct Bench {
  std::string name;
  std::function<void(std::int64_t)> run;  // runs that many iterations
};

struct Result {
  std::string name;
  std::int64_t iterations = 0;
  double ns_per_op = 0.0;
};

double seconds_for(const Bench& b, std::int64_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  b.run(iters);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

Result measure(const Bench& b, double min_time_s) {
  std::int64_t iters = 1;
  double elapsed = seconds_for(b, iters);
  while (elapsed < min_time_s && iters < (1LL << 40)) {
    const double scale =
        elapsed > 0.0 ? 1.4 * min_time_s / elapsed : 16.0;
    const auto next = static_cast<std::int64_t>(
        static_cast<double>(iters) * (scale < 2.0 ? 2.0 : scale));
    iters = next > iters ? next : iters + 1;
    elapsed = seconds_for(b, iters);
  }
  // Iteration floor: a bench whose single op meets the min time on
  // its own would otherwise be recorded from one timing of one op —
  // one scheduler hiccup away from a 2-3x outlier.  Every recorded
  // number averages at least kMinIterations ops, and runs at the
  // floor additionally keep the best of three passes.
  constexpr std::int64_t kMinIterations = 4;
  if (iters < kMinIterations) {
    iters = kMinIterations;
    elapsed = seconds_for(b, iters);
  }
  if (iters == kMinIterations) {
    for (int rep = 0; rep < 2; ++rep) {
      const double again = seconds_for(b, iters);
      if (again < elapsed) elapsed = again;
    }
  }
  Result r;
  r.name = b.name;
  r.iterations = iters;
  r.ns_per_op = elapsed * 1e9 / static_cast<double>(iters);
  return r;
}

// Keeps the compiler from discarding a computed value.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

std::vector<Bench> make_benches() {
  std::vector<Bench> benches;

  benches.push_back({"leakage_solve_flat_slice", [](std::int64_t n) {
    const xbar::CrossbarSpec spec = xbar::table1_spec();
    const xbar::OutputSlice slice =
        xbar::build_output_slice(spec, xbar::Scheme::kDPC);
    const tech::DeviceModel model(tech::itrs_node(spec.node), spec.temp_k);
    circuit::LeakageSolver solver(slice.nl, model);
    circuit::NodeVoltages nv(slice.nl, model.vdd_v());
    const auto& cell = slice.cells.front();
    for (std::size_t k = 0; k < cell.grants.size(); ++k) {
      nv.set_logic(cell.grants[k], k == 0);
      nv.set_logic(cell.inputs[k], true);
    }
    nv.set_logic(cell.node_a, true);
    nv.set_logic(cell.node_b, false);
    nv.set_logic(cell.out, true);
    nv.set_logic(slice.sleep_signals.front(), false);
    nv.set_logic(slice.precharge_signal, true);
    for (std::int64_t i = 0; i < n; ++i) {
      const double w = solver.solve(nv).total_w();
      keep(w);
    }
  }});

  // SDPC's standby slice at the paper point: the costliest state
  // characterize() solves (it runs to the sweep cap).  A fresh solver
  // per iteration keeps the solver's memo from serving it.
  benches.push_back({"leakage_solve_seg_slice", [](std::int64_t n) {
    const xbar::CrossbarSpec spec = xbar::table1_spec();
    const xbar::OutputSlice slice =
        xbar::build_output_slice(spec, xbar::Scheme::kSDPC);
    const tech::DeviceModel model(tech::itrs_node(spec.node), spec.temp_k);
    circuit::NodeVoltages standby(slice.nl, model.vdd_v());
    for (const xbar::LeakageState& s :
         xbar::leakage_states(spec, xbar::Scheme::kSDPC)) {
      if (!s.input_cell) standby = s.voltages;  // the last slice state
    }
    for (std::int64_t i = 0; i < n; ++i) {
      circuit::LeakageSolver solver(slice.nl, model);
      const double w = solver.solve(standby).total_w();
      keep(w);
    }
  }});

  for (xbar::Scheme scheme : xbar::all_schemes()) {
    benches.push_back(
        {"characterize/" + std::string(xbar::scheme_name(scheme)),
         [scheme](std::int64_t n) {
           const xbar::CrossbarSpec spec = xbar::table1_spec();
           for (std::int64_t i = 0; i < n; ++i) {
             const xbar::Characterization c =
                 xbar::characterize(spec, scheme);
             keep(c);
           }
         }});
  }

  for (int segments : {4, 16, 64}) {
    benches.push_back(
        {"elmore_wire/" + std::to_string(segments),
         [segments](std::int64_t n) {
           const auto& node = tech::itrs_node(tech::Node::k45nm);
           const tech::WireRC rc =
               tech::wire_rc(node, tech::WireTier::kIntermediate);
           circuit::RCTree t;
           const int end = t.add_wire(0, rc, 179.2e-6, segments);
           for (std::int64_t i = 0; i < n; ++i) {
             const double d = t.elmore_delay_s(end, 300.0);
             keep(d);
           }
         }});
  }

  for (int ports : {5, 16}) {
    benches.push_back(
        {"matrix_arbiter/" + std::to_string(ports),
         [ports](std::int64_t n) {
           noc::MatrixArbiter arb(ports);
           // The mask hot-path entry point, as the allocator drives it.
           const noc::Mask req = noc::low_mask(ports);
           for (std::int64_t i = 0; i < n; ++i) {
             const int g = arb.arbitrate(req);
             keep(g);
           }
         }});
  }

  // The two extremes of the router's per-cycle cost.  router_tick_idle
  // is one quiescent router stepped through the kernel's dispatch (the
  // O(1) predicate + bookkeeping path).  router_tick_loaded is one
  // cycle of a 3x3 mesh held at saturation — 9 routers running the
  // full zero-allocation RC/VA/SA/ST pipeline plus NIC and channel
  // advance, so ns/op is ~9 loaded router ticks.
  benches.push_back({"router_tick_idle", [](std::int64_t n) {
    noc::SimConfig cfg;  // 5x5 mesh defaults, no traffic
    noc::Network net(cfg);
    noc::Router& r = net.router(12);
    for (std::int64_t i = 0; i < n; ++i) {
      if (r.quiescent()) {
        r.tick_idle();
      } else {
        r.tick();
      }
    }
    keep(r.activity());
  }});

  benches.push_back({"router_tick_loaded", [](std::int64_t n) {
    noc::SimConfig cfg;
    cfg.radix_x = 3;
    cfg.radix_y = 3;
    noc::Network net(cfg);
    std::int64_t id = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (noc::NodeId node = 0; node < net.num_nodes(); ++node) {
        noc::Nic& nic = net.nic(node);
        // Keep every source queue non-empty so the fabric stays at
        // injection-limited saturation.
        if (nic.source_queue_flits() < cfg.packet_length_flits) {
          nic.source_packet((node + 4) % 9, i, ++id);
        }
        nic.tick(i);
      }
      for (noc::NodeId node = 0; node < net.num_nodes(); ++node) {
        net.router(node).tick();
      }
      net.tick_channels();
    }
    keep(net.flits_in_flight());
  }});

  // One whole-mesh cycle (25 routers at 0.15 flits/node/cycle) per op,
  // not per node.  Like every sim_step_* bench it steps event-driven,
  // the default; a bare step() advances one cycle.
  benches.push_back({"sim_step_5x5_mesh", [](std::int64_t n) {
    noc::SimConfig cfg =
        core::default_mesh_config(0.15, noc::TrafficPattern::kUniform);
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1;
    noc::Simulation sim(cfg);
    for (std::int64_t i = 0; i < n; ++i) sim.step();
  }});

  // The paper regime: a 16x16 mesh at 0.02 flits/node/cycle, where
  // nearly every router is quiescent on any given cycle.  One op = one
  // whole-fabric cycle (256 routers) through the serial kernel's bare
  // step() loop, which event stepping advances one cycle at a time,
  // ticking only the components with work.  The _slowpath twin pins the
  // per-cycle reference, the full pipeline on every router, so the pair
  // keeps the stepping win visible in every recorded bench trajectory.
  for (const bool fast : {true, false}) {
    benches.push_back(
        {fast ? "mesh_idle_fastpath" : "mesh_idle_slowpath",
         [fast](std::int64_t n) {
           noc::SimConfig cfg;
           cfg.radix_x = 16;
           cfg.radix_y = 16;
           cfg.injection_rate = 0.02;
           cfg.warmup_cycles = 0;
           cfg.measure_cycles = 1;
           cfg.enable_idle_fastpath = fast;
           noc::Simulation sim(cfg);
           for (std::int64_t i = 0; i < n; ++i) sim.step();
           keep(sim.network().flits_in_flight());
         }});
  }

  // Sparse-traffic pair: the same 16x16 fabric at 0.002, where most
  // cycles are arrival-free fabric-wide ((1-0.002)^256 = 60%) and the
  // fabric drains between packets.  mesh_sparse steps event-driven, so
  // a bare step() over a quiescent fabric executes nothing; the
  // _slowpath twin pins the per-cycle reference pipeline, so the pair
  // keeps the stepping win visible in every recorded bench trajectory.
  for (const bool fast : {true, false}) {
    benches.push_back(
        {fast ? "mesh_sparse" : "mesh_sparse_slowpath",
         [fast](std::int64_t n) {
           noc::SimConfig cfg;
           cfg.radix_x = 16;
           cfg.radix_y = 16;
           cfg.injection_rate = 0.002;
           cfg.warmup_cycles = 0;
           cfg.measure_cycles = 1;
           cfg.enable_idle_fastpath = fast;
           noc::Simulation sim(cfg);
           for (std::int64_t i = 0; i < n; ++i) sim.step();
           keep(sim.network().flits_in_flight());
         }});
  }

  // Degraded-fabric cost: one whole-fabric cycle of an 8x8 mesh at
  // 0.02 after a permanent link kill, so every op runs the fault-aware
  // route function (XY where the path is alive, escape spanning-tree
  // around the dead link) plus the live fault controller's between-
  // step check.  Gated against mesh_idle_fastpath-style healthy runs
  // via the relative anchor: self-healing must stay a routing-table
  // lookup, not a per-cycle graph search.
  benches.push_back({"mesh_faulted_reroute", [](std::int64_t n) {
    noc::SimConfig cfg;
    cfg.radix_x = 8;
    cfg.radix_y = 8;
    cfg.vcs = 2;  // mesh + faults: 1 adaptive + 1 escape VC
    cfg.injection_rate = 0.02;
    cfg.fault.links = 1;
    cfg.fault.seed = 2;
    cfg.fault.at = 1;
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1;
    noc::Simulation sim(cfg);
    // Step past the kill so the measured ops all run degraded.
    for (int i = 0; i < 8; ++i) sim.step();
    for (std::int64_t i = 0; i < n; ++i) sim.step();
    keep(sim.network().flits_in_flight());
  }});

  // Telemetry overhead pair: one 8x8-mesh kernel step per op, with the
  // full telemetry stack engaged (collector attached + 64-cycle
  // metrics window + windowed per-shard accumulation) vs the same
  // kernel with telemetry compiled in but left disabled.  The _off
  // twin is what the perf gate holds near the plain sim_step cost:
  // hooks must be a predicted branch, not a tax.
  for (const bool telemetry_on : {true, false}) {
    benches.push_back(
        {telemetry_on ? "sim_step_telemetry_on" : "sim_step_telemetry_off",
         [telemetry_on](std::int64_t n) {
           noc::SimConfig cfg;
           cfg.radix_x = 8;
           cfg.radix_y = 8;
           cfg.injection_rate = 0.1;
           cfg.warmup_cycles = 0;
           cfg.measure_cycles = 1;
           noc::Simulation sim(cfg);
           telemetry::Collector collector;
           if (telemetry_on) {
             sim.set_telemetry(&collector);
             sim.set_metrics_window(64);
           }
           for (std::int64_t i = 0; i < n; ++i) sim.step();
           keep(sim.network().flits_in_flight());
           keep(collector.totals());
         }});
  }

  benches.push_back({"powered_noc_run", [](std::int64_t n) {
    // The session path: cached characterization + budgeted kernel.
    core::LainContext ctx;
    core::NocRunSpec spec;
    spec.scheme = xbar::Scheme::kSDPC;
    spec.sim = core::default_mesh_config(0.1, noc::TrafficPattern::kUniform);
    for (std::int64_t i = 0; i < n; ++i) {
      const core::NocRunResult r = ctx.run_noc(spec);
      keep(r);
    }
  }});
  benches.push_back({"powered_noc_sparse", [](std::int64_t n) {
    // Its sparse twin: a 16x16 SDPC mesh at 0.002, where the deferred
    // idle power flush and the arrival scan carry the run.
    core::LainContext ctx;
    core::NocRunSpec spec;
    spec.scheme = xbar::Scheme::kSDPC;
    spec.sim = core::make_sim_config(16, noc::TopologyKind::kMesh, 0.002,
                                     noc::TrafficPattern::kUniform, 1);
    for (std::int64_t i = 0; i < n; ++i) {
      const core::NocRunResult r = ctx.run_noc(spec);
      keep(r);
    }
  }});

  return benches;
}

// --- the JSON baseline format ----------------------------------------------

std::string to_json(const std::vector<Result>& results) {
  std::ostringstream os;
  os << "{\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "    {\"name\": \"" << results[i].name
       << "\", \"iterations\": " << results[i].iterations
       << ", \"ns_per_op\": " << results[i].ns_per_op << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

// Minimal parser for exactly the document to_json() writes: ordered
// ("name", "ns_per_op") pairs.  Anything it cannot find is an error —
// a malformed baseline should fail the gate, not pass it silently.
std::vector<Result> parse_baseline(const std::string& text) {
  std::vector<Result> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t name_at = text.find("\"name\"", pos);
    if (name_at == std::string::npos) break;
    const std::size_t q1 = text.find('"', text.find(':', name_at));
    const std::size_t q2 = text.find('"', q1 + 1);
    const std::size_t ns_at = text.find("\"ns_per_op\"", q2);
    if (q1 == std::string::npos || q2 == std::string::npos ||
        ns_at == std::string::npos) {
      throw std::runtime_error("malformed baseline JSON");
    }
    Result r;
    r.name = text.substr(q1 + 1, q2 - q1 - 1);
    r.ns_per_op = std::stod(text.substr(text.find(':', ns_at) + 1));
    out.push_back(r);
    pos = ns_at;
  }
  if (out.empty()) throw std::runtime_error("baseline lists no benchmarks");
  return out;
}

// Loaded (and validated) before the measurement pass, so a bad path
// or malformed file fails in milliseconds, not after the full run.
// The anchor (when gating relatively) always survives the filter —
// it is the denominator every gated benchmark needs.
std::vector<Result> load_baseline(const std::string& baseline_path,
                                  const std::string& filter,
                                  const std::string& anchor) {
  std::ifstream in(baseline_path);
  if (!in) {
    throw std::runtime_error("cannot open baseline: " + baseline_path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::vector<Result> baseline = parse_baseline(ss.str());
  // Under --filter, only gate the benchmarks that actually run;
  // everything else in the baseline is out of scope, not GONE.
  if (!filter.empty()) {
    std::vector<Result> kept;
    for (const Result& r : baseline) {
      if (r.name == anchor || r.name.find(filter) != std::string::npos) {
        kept.push_back(r);
      }
    }
    baseline = std::move(kept);
    if (baseline.empty()) {
      throw std::runtime_error("filter matches nothing in the baseline: " +
                               filter);
    }
  }
  return baseline;
}

const Result* find_result(const std::vector<Result>& results,
                          const std::string& name) {
  for (const Result& r : results)
    if (r.name == name) return &r;
  return nullptr;
}

int check_against_baseline(const std::vector<Result>& current,
                           const std::vector<Result>& baseline,
                           const std::string& baseline_path,
                           double tolerance, const std::string& anchor) {
  // Relative mode divides both sides by the anchor's ns/op, so the
  // gated quantity is a machine-portable cost ratio; absolute mode
  // (empty anchor) compares raw ns/op.
  double base_anchor = 1.0, cur_anchor = 1.0;
  if (!anchor.empty()) {
    const Result* b = find_result(baseline, anchor);
    const Result* c = find_result(current, anchor);
    if (!b || b->ns_per_op <= 0.0) {
      throw std::runtime_error("anchor missing from baseline: " + anchor);
    }
    if (!c || c->ns_per_op <= 0.0) {
      throw std::runtime_error("anchor did not run: " + anchor);
    }
    base_anchor = b->ns_per_op;
    cur_anchor = c->ns_per_op;
  }

  core::ReportTable t;
  t.add_column("benchmark", 26, core::Align::kLeft)
      .add_column(anchor.empty() ? "base ns/op" : "base rel", 12)
      .add_column(anchor.empty() ? "now ns/op" : "now rel", 12)
      .add_column("drift", 8)
      .add_column("status", 8, core::Align::kLeft);
  int failures = 0;
  for (const Result& base : baseline) {
    const Result* cur = find_result(current, base.name);
    if (!cur) {
      t.begin_row().cell(base.name).cell(base.ns_per_op / base_anchor, 3)
          .cell("-").cell("-").cell("GONE");
      ++failures;
      continue;
    }
    const double base_rel = base.ns_per_op / base_anchor;
    const double cur_rel = cur->ns_per_op / cur_anchor;
    const double drift = base_rel > 0.0 ? cur_rel / base_rel : 0.0;
    const bool is_anchor = !anchor.empty() && base.name == anchor;
    const bool slow = !is_anchor && drift > tolerance;
    if (slow) ++failures;
    t.begin_row()
        .cell(base.name)
        .cell(base_rel, 3)
        .cell(cur_rel, 3)
        .cell(drift, 2)
        .cell(is_anchor ? "anchor" : (slow ? "SLOW" : "ok"));
  }
  for (const Result& cur : current) {
    if (!find_result(baseline, cur.name)) {
      t.begin_row().cell(cur.name).cell("-").cell(cur.ns_per_op / cur_anchor,
                                                  3).cell("-").cell("(new)");
    }
  }
  const std::string mode =
      anchor.empty() ? "absolute ns/op" : "relative to " + anchor;
  std::printf("perf gate vs %s (%s, tolerance %.1fx):\n\n%s",
              baseline_path.c_str(), mode.c_str(), tolerance,
              t.to_text().c_str());
  if (failures) {
    std::printf("\n%d benchmark%s regressed beyond tolerance\n", failures,
                failures == 1 ? "" : "s");
    return 1;
  }
  return 0;
}

int usage(FILE* out) {
  std::fprintf(out,
               "usage: perf_micro [--json] [--out FILE] [--min-time-ms D]\n"
               "                  [--filter SUBSTR]\n"
               "                  [--check BASELINE [--tolerance X]\n"
               "                   [--anchor NAME|none]]\n");
  return out == stderr ? 2 : 0;
}

int run(int argc, char** argv) {
  const core::ArgParser args(
      argc - 1, argv + 1,
      {"out", "min-time-ms", "check", "tolerance", "filter", "anchor"},
      {"json", "help"});
  if (args.has("help")) return usage(stdout);
  if (!args.positionals().empty()) {
    std::fprintf(stderr, "perf_micro: unexpected argument: %s\n",
                 args.positionals().front().c_str());
    return usage(stderr);
  }
  const double min_time_s = args.get_double("min-time-ms", 20.0) / 1e3;
  const std::string filter = args.get("filter", "");

  const std::string baseline_path = args.get("check", "");
  if (!baseline_path.empty() && (args.has("json") || args.has("out"))) {
    throw std::invalid_argument(
        "--check gates and reports to stdout; it cannot be combined with "
        "--json/--out (record a baseline in a separate run)");
  }
  // The default gate is relative (ratio-to-anchor), so one checked-in
  // baseline travels across hosts; "none" restores absolute ns/op.
  std::string anchor = args.get("anchor", "elmore_wire/64");
  if (anchor == "none") anchor.clear();
  if (baseline_path.empty()) anchor.clear();  // only meaningful with --check
  std::vector<Result> baseline;
  if (!baseline_path.empty()) {
    baseline = load_baseline(baseline_path, filter, anchor);
  }

  std::vector<Result> results;
  for (const Bench& b : make_benches()) {
    const bool is_anchor = !anchor.empty() && b.name == anchor;
    if (!filter.empty() && !is_anchor &&
        b.name.find(filter) == std::string::npos) {
      continue;
    }
    results.push_back(measure(b, min_time_s));
  }
  if (results.empty()) {
    throw std::invalid_argument("filter matches no benchmark: " + filter);
  }

  if (!baseline_path.empty()) {
    return check_against_baseline(results, baseline, baseline_path,
                                  args.get_double("tolerance", 5.0), anchor);
  }

  if (args.has("json")) {
    core::write_output(args.get("out", ""), to_json(results));
    return 0;
  }
  core::ReportTable t;
  t.add_column("benchmark", 26, core::Align::kLeft)
      .add_column("iterations", 12)
      .add_column("ns/op", 14)
      .add_column("ops/s", 14);
  for (const Result& r : results) {
    t.begin_row().cell(r.name).cell(r.iterations).cell(r.ns_per_op, 1).cell(
        r.ns_per_op > 0.0 ? 1e9 / r.ns_per_op : 0.0, 0);
  }
  core::write_output(args.get("out", ""), t.to_text());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_micro: %s\n", e.what());
    return 1;
  }
}
