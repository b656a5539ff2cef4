#include "core/bench_suite.hpp"

#include <chrono>
#include <iterator>
#include <string>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "power/sleep_controller.hpp"
#include "tech/corners.hpp"
#include "tech/itrs.hpp"
#include "tech/units.hpp"
#include "xbar/characterize.hpp"

namespace lain::core {

namespace {

// mesh_scaling's phase lengths, the same for every timed row.
constexpr noc::Cycle kScalingWarmupCycles = 200;
constexpr noc::Cycle kScalingMeasureCycles = 1000;

// node_scaling's technology axis.
constexpr tech::Node kScalingNodes[] = {tech::Node::k90nm, tech::Node::k65nm,
                                        tech::Node::k45nm};
constexpr std::size_t kNumScalingNodes = std::size(kScalingNodes);

std::string scheme_str(xbar::Scheme s) {
  return std::string(xbar::scheme_name(s));
}

// Characterizes (spec-variant, scheme) pairs in parallel and returns
// the results in job order.  `mutate(spec, i)` applies axis i's spec
// change; jobs are laid out axis-major: [axis0×schemes..., axis1×...].
// Each pair goes through the context's cache, so repeated grids (the
// savings matrix re-walking the scaling grid, a worst-case check
// re-walking a probability sweep) characterize nothing twice.
std::vector<xbar::Characterization> characterize_grid(
    LainContext& ctx, const SweepEngine& engine, std::size_t num_axis_points,
    const std::vector<xbar::Scheme>& schemes,
    const std::function<void(xbar::CrossbarSpec&, std::size_t)>& mutate) {
  const std::size_t n = num_axis_points * schemes.size();
  return engine.map<xbar::Characterization>(n, [&](std::size_t job) {
    const std::size_t axis = job / schemes.size();
    const xbar::Scheme scheme = schemes[job % schemes.size()];
    xbar::CrossbarSpec spec = xbar::table1_spec();
    mutate(spec, axis);
    return ctx.characterization(spec, scheme);
  });
}

// `schemes` at the paper's design point, in order.
std::vector<xbar::Characterization> at_paper_point(
    LainContext& ctx, const SweepEngine& engine,
    const std::vector<xbar::Scheme>& schemes) {
  return characterize_grid(ctx, engine, 1, schemes,
                           [](xbar::CrossbarSpec&, std::size_t) {});
}

std::vector<xbar::Scheme> every_scheme() {
  const auto all = xbar::all_schemes();
  return std::vector<xbar::Scheme>(all.begin(), all.end());
}

}  // namespace

Table1 measured_table1(LainContext& ctx, const SweepEngine& engine) {
  return make_table1(at_paper_point(ctx, engine, every_scheme()));
}

ReportTable injection_sweep(LainContext& ctx, const ScenarioSpec& spec,
                            const SweepEngine& engine) {
  SweepAxes axes;
  axes.schemes = spec.schemes;
  axes.patterns = spec.patterns;
  axes.injection_rates = spec.rates;
  axes.hotspot_fractions = spec.hotspot_fracs;
  axes.burst_duties = spec.burst_duties;
  axes.seeds = spec.seeds;

  const std::vector<NocRunResult> results =
      engine.map_points<NocRunResult>(axes, [&](const SweepPoint& p) {
        NocRunSpec run(spec.run);
        run.scheme = p.scheme;
        run.sim = default_mesh_config(p.injection_rate, p.pattern, p.seed);
        run.sim.hotspot_fraction = p.hotspot_fraction;
        run.sim.burst_duty = p.burst_duty;
        run.sim.burst_on_mean_cycles = spec.burst_on_mean_cycles;
        run.enable_gating = spec.gating;
        return ctx.run_noc(run);
      });

  const bool show_hotspot = spec.hotspot_fracs.size() > 1;
  const bool show_duty = spec.burst_duties.size() > 1;
  const bool show_seed = spec.seeds.size() > 1;
  ReportTable t;
  t.add_column("pattern", 9, Align::kLeft)
      .add_column("scheme", 6, Align::kLeft)
      .add_column("rate", 6, Align::kLeft);
  if (show_hotspot) t.add_column("hotspot", 8, Align::kLeft);
  if (show_duty) t.add_column("duty", 6, Align::kLeft);
  if (show_seed) t.add_column("seed", 20, Align::kLeft);
  t.add_column("lat", 9)
      .add_column("thr", 9)
      .add_column("xbar mW", 10)
      .add_column("stby%", 8)
      .add_column("saved mW", 10)
      .add_column("sat", 5, Align::kLeft);

  const std::vector<SweepPoint> points = axes.expand();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const NocRunResult& r = results[i];
    t.begin_row()
        .cell(noc::traffic_name(p.pattern))
        .cell(scheme_str(p.scheme))
        .cell(p.injection_rate, 2);
    if (show_hotspot) t.cell(p.hotspot_fraction, 2);
    if (show_duty) t.cell(p.burst_duty, 2);
    if (show_seed) t.cell(std::to_string(p.seed));
    t.cell(r.avg_packet_latency_cycles, 2)
        .cell(r.throughput_flits_node_cycle, 3)
        .cell(to_mW(r.crossbar_power_w), 2)
        .cell_pct(r.standby_fraction, 1)
        .cell(to_mW(r.realized_saving_w), 2)
        .cell(r.canceled            ? "[canceled]"
              : r.aborted_saturated ? "[abort]"
              : r.saturated         ? "[sat]"
                                    : "");
  }
  return t;
}

ReportTable idle_histogram(LainContext& ctx, const ScenarioSpec& spec,
                           const SweepEngine& engine) {
  SweepAxes axes;
  axes.patterns = spec.patterns;
  axes.injection_rates = spec.rates;
  axes.hotspot_fractions = spec.hotspot_fracs;
  axes.burst_duties = spec.burst_duties;
  axes.seeds = spec.seeds;

  const std::vector<noc::Histogram> results =
      engine.map_points<noc::Histogram>(axes, [&](const SweepPoint& p) {
        noc::SimConfig cfg =
            default_mesh_config(p.injection_rate, p.pattern, p.seed);
        cfg.hotspot_fraction = p.hotspot_fraction;
        cfg.burst_duty = p.burst_duty;
        cfg.burst_on_mean_cycles = spec.burst_on_mean_cycles;
        return ctx.idle_histogram(cfg, spec.run);
      });

  const bool show_hotspot = spec.hotspot_fracs.size() > 1;
  const bool show_duty = spec.burst_duties.size() > 1;
  const bool show_seed = spec.seeds.size() > 1;
  ReportTable t;
  t.add_column("pattern", 9, Align::kLeft).add_column("rate", 6, Align::kLeft);
  if (show_hotspot) t.add_column("hotspot", 8, Align::kLeft);
  if (show_duty) t.add_column("duty", 6, Align::kLeft);
  if (show_seed) t.add_column("seed", 20, Align::kLeft);
  t.add_column("runs", 8)
      .add_column("mean", 8)
      .add_column("p50", 6)
      .add_column("p95", 6)
      .add_column(">=1cyc", 8)   // gateable for DPC/SDPC (min idle 1)
      .add_column(">=2cyc", 8)   // DFC (min idle 2)
      .add_column(">=3cyc", 8);  // SC/SDFC (min idle 3)

  const std::vector<SweepPoint> points = axes.expand();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const noc::Histogram& h = results[i];
    t.begin_row()
        .cell(noc::traffic_name(p.pattern))
        .cell(p.injection_rate, 2);
    if (show_hotspot) t.cell(p.hotspot_fraction, 2);
    if (show_duty) t.cell(p.burst_duty, 2);
    if (show_seed) t.cell(std::to_string(p.seed));
    t.cell(h.count())
        .cell(h.mean(), 1)
        .cell(h.percentile(0.5))
        .cell(h.percentile(0.95))
        .cell_pct(h.fraction_at_least(1), 1)
        .cell_pct(h.fraction_at_least(2), 1)
        .cell_pct(h.fraction_at_least(3), 1);
  }
  return t;
}

ReportTable mesh_vs_torus(LainContext& ctx, const ScenarioSpec& spec,
                          const SweepEngine& engine) {
  // Job layout: (pattern, radix, rate) x {mesh, torus}.
  struct Point {
    noc::TrafficPattern pattern;
    int radix;
    double rate;
  };
  std::vector<Point> points;
  for (noc::TrafficPattern pattern : spec.patterns) {
    for (int radix : spec.radices) {
      for (double rate : spec.rates) {
        points.push_back(Point{pattern, radix, rate});
      }
    }
  }

  const std::vector<NocRunResult> results = engine.map<NocRunResult>(
      points.size() * 2, [&](std::size_t job) {
        const Point& p = points[job / 2];
        const noc::TopologyKind topology = (job % 2 == 0)
                                               ? noc::TopologyKind::kMesh
                                               : noc::TopologyKind::kTorus;
        NocRunSpec run(spec.run);
        run.scheme = spec.schemes.front();
        run.sim = make_sim_config(p.radix, topology, p.rate, p.pattern,
                                  spec.seed);
        run.enable_gating = spec.gating;
        return ctx.run_noc(run);
      });

  ReportTable t;
  t.add_column("pattern", 9, Align::kLeft)
      .add_column("radix", 6, Align::kLeft)
      .add_column("rate", 6, Align::kLeft)
      .add_column("mesh lat", 10)
      .add_column("torus lat", 10)
      .add_column("mesh thr", 10)
      .add_column("torus thr", 10)
      .add_column("mesh mW", 9)
      .add_column("torus mW", 9)
      .add_column("sat", 12, Align::kLeft);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const NocRunResult& mesh = results[i * 2];
    const NocRunResult& torus = results[i * 2 + 1];
    std::string sat;
    if (mesh.saturated) sat += "[mesh]";
    if (torus.saturated) sat += "[torus]";
    t.begin_row()
        .cell(noc::traffic_name(p.pattern))
        .cell(std::to_string(p.radix) + "x" + std::to_string(p.radix))
        .cell(p.rate, 2)
        .cell(mesh.avg_packet_latency_cycles, 2)
        .cell(torus.avg_packet_latency_cycles, 2)
        .cell(mesh.throughput_flits_node_cycle, 3)
        .cell(torus.throughput_flits_node_cycle, 3)
        .cell(to_mW(mesh.crossbar_power_w), 2)
        .cell(to_mW(torus.crossbar_power_w), 2)
        .cell(sat);
  }
  return t;
}

ReportTable mesh_scaling(const ScenarioSpec& spec) {
  ReportTable t;
  t.add_column("radix", 6, Align::kLeft)
      .add_column("nodes", 7)
      .add_column("partition", 10, Align::kLeft)
      .add_column("threads", 8)
      .add_column("shards", 7)
      .add_column("boundary", 9)
      .add_column("cycles", 8)
      .add_column("wall ms", 9)
      .add_column("Mcyc/s", 9)
      .add_column("Mnode-cyc/s", 12)
      .add_column("speedup", 8)
      .add_column("lat", 8)
      .add_column("match", 6, Align::kLeft);

  for (int radix : spec.radices) {
    noc::SimConfig cfg =
        make_sim_config(radix, noc::TopologyKind::kMesh, spec.rates.front(),
                        spec.patterns.front(), spec.seed);
    cfg.warmup_cycles = kScalingWarmupCycles;
    cfg.measure_cycles = kScalingMeasureCycles;
    // No thread budget: the runs are timed one at a time on purpose.
    const noc::ShardedOptions engine = apply_run_options(spec.run, cfg);

    // The first (partition, shards) pair anchors speedup and the
    // bit-identity check for the whole radix — every partition shape
    // must reproduce its stats exactly.
    bool have_base = false;
    double base_ms = 0.0;
    noc::SimStats base;
    for (noc::PartitionStrategy partition : spec.partition_list) {
      for (int shards : spec.sim_thread_list) {
        noc::ShardedOptions sopt = engine;
        sopt.shards = shards;
        sopt.partition = partition;
        noc::ShardedSimulation sim(cfg, sopt);
        const auto t0 = std::chrono::steady_clock::now();
        const noc::SimStats st = sim.run();
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double cycles = static_cast<double>(sim.now());
        // Simulated cycles per wall second (in millions): the direct
        // reading of how fast the kernel advances time — shard speedup
        // and the idle fast path both land in this column.
        const double mcyc_s = ms > 0.0 ? cycles / (ms * 1e3) : 0.0;
        const double mnode_cyc_s =
            ms > 0.0 ? cycles * cfg.num_nodes() / (ms * 1e3) : 0.0;

        const bool is_base = !have_base;
        bool match = true;
        if (is_base) {
          have_base = true;
          base_ms = ms;
          base = st;
        } else {
          match = st.packets_injected == base.packets_injected &&
                  st.packets_ejected == base.packets_ejected &&
                  st.packet_latency.mean() == base.packet_latency.mean() &&
                  st.hops.mean() == base.hops.mean();
        }
        t.begin_row()
            .cell(std::to_string(radix) + "x" + std::to_string(radix))
            .cell(static_cast<std::int64_t>(cfg.num_nodes()))
            .cell(noc::partition_name(sim.partition().strategy))
            .cell(static_cast<std::int64_t>(shards))
            .cell(static_cast<std::int64_t>(sim.num_shards()))
            .cell(static_cast<std::int64_t>(sim.partition().boundary_links))
            .cell(static_cast<std::int64_t>(sim.now()))
            .cell(ms, 1)
            .cell(mcyc_s, 3)
            .cell(mnode_cyc_s, 2)
            .cell(is_base || ms <= 0.0 ? 1.0 : base_ms / ms, 2)
            .cell(st.packet_latency.mean(), 2)
            .cell(is_base ? "base" : (match ? "yes" : "NO"));
      }
    }
  }
  return t;
}

ReportTable corner_sweep(LainContext& ctx, const ScenarioSpec& spec,
                         const SweepEngine& engine) {
  // Every (temp, scheme) pair, plus a per-temp SC baseline for the
  // saving column when SC is not already on the scheme axis; all
  // characterized in one parallel grid.
  std::vector<xbar::Scheme> grid_schemes = spec.schemes;
  std::size_t sc_at = grid_schemes.size();
  for (std::size_t s = 0; s < grid_schemes.size(); ++s)
    if (grid_schemes[s] == xbar::Scheme::kSC) sc_at = s;
  if (sc_at == grid_schemes.size()) grid_schemes.push_back(xbar::Scheme::kSC);
  const std::vector<xbar::Characterization> chars = characterize_grid(
      ctx, engine, spec.temps_c.size(), grid_schemes,
      [&](xbar::CrossbarSpec& xs, std::size_t axis) {
        xs.temp_k = temp_k_of_c(spec.temps_c[axis]);
      });
  auto at = [&](std::size_t axis, std::size_t s) -> const auto& {
    return chars[axis * grid_schemes.size() + s];
  };

  ReportTable t;
  t.add_column("temp C", 8, Align::kLeft)
      .add_column("scheme", 6, Align::kLeft)
      .add_column("active mW", 14)
      .add_column("standby mW", 14)
      .add_column("act saving", 12);
  for (std::size_t a = 0; a < spec.temps_c.size(); ++a) {
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const xbar::Characterization& c = at(a, s);
      const double saving =
          spec.schemes[s] == xbar::Scheme::kSC
              ? 0.0
              : xbar::relative_saving(at(a, sc_at).active_leakage_w,
                                      c.active_leakage_w);
      t.begin_row()
          .cell(spec.temps_c[a], 0)
          .cell(scheme_str(spec.schemes[s]))
          .cell(to_mW(c.active_leakage_w), 3)
          .cell(to_mW(c.standby_leakage_w), 3)
          .cell_pct(saving, 1);
    }
  }
  return t;
}

ReportTable corner_device_report() {
  const tech::TechNode& node = tech::itrs_node(tech::Node::k45nm);
  ReportTable t;
  t.add_column("corner", 6, Align::kLeft)
      .add_column("Ioff uA/um", 12)
      .add_column("hiVt uA/um", 12)
      .add_column("Ion mA/um", 12)
      .add_column("leak ratio", 12);
  for (tech::Corner corner :
       {tech::Corner::kSS, tech::Corner::kTT, tech::Corner::kFF}) {
    tech::OperatingPoint op;
    op.corner = corner;
    const tech::DeviceModel m = tech::make_device_model(node, op);
    const tech::Mosfet n{tech::DeviceType::kNmos, tech::VtClass::kNominal,
                         1e-6};
    const tech::Mosfet h{tech::DeviceType::kNmos, tech::VtClass::kHigh, 1e-6};
    t.begin_row()
        .cell(tech::corner_name(corner))
        .cell(to_uA(m.ioff_a(n)), 2)
        .cell(to_uA(m.ioff_a(h)), 2)
        .cell(m.ion_a(n) * 1e3, 2)
        .cell(m.ioff_a(n) / m.ioff_a(h), 1);
  }
  return t;
}

ReportTable node_scaling(LainContext& ctx, const ScenarioSpec& spec,
                         const SweepEngine& engine) {
  const std::vector<xbar::Characterization> chars = characterize_grid(
      ctx, engine, kNumScalingNodes, spec.schemes,
      [](xbar::CrossbarSpec& xs, std::size_t axis) {
        xs.node = kScalingNodes[axis];
      });

  ReportTable t;
  t.add_column("node", 6, Align::kLeft)
      .add_column("scheme", 6, Align::kLeft)
      .add_column("dynamic mW", 12)
      .add_column("leakage mW", 12)
      .add_column("total mW", 12)
      .add_column("leak share", 10);
  for (std::size_t a = 0; a < kNumScalingNodes; ++a) {
    for (std::size_t s = 0; s < spec.schemes.size(); ++s) {
      const xbar::Characterization& c = chars[a * spec.schemes.size() + s];
      t.begin_row()
          .cell(std::string(tech::itrs_node(kScalingNodes[a]).name))
          .cell(scheme_str(spec.schemes[s]))
          .cell(to_mW(c.dynamic_power_w + c.control_power_w), 2)
          .cell(to_mW(c.active_leakage_w), 2)
          .cell(to_mW(c.total_power_w), 2)
          .cell_pct(c.active_leakage_w / c.total_power_w, 1);
    }
  }
  return t;
}

ReportTable node_scaling_savings(LainContext& ctx, const ScenarioSpec& spec,
                                 const SweepEngine& engine) {
  // SC anchors the saving column even when not requested: put it at
  // the front of the grid and only emit the requested columns.
  std::vector<xbar::Scheme> grid_schemes{xbar::Scheme::kSC};
  for (xbar::Scheme s : spec.schemes)
    if (s != xbar::Scheme::kSC) grid_schemes.push_back(s);
  const std::vector<xbar::Characterization> chars = characterize_grid(
      ctx, engine, kNumScalingNodes, grid_schemes,
      [](xbar::CrossbarSpec& xs, std::size_t axis) {
        xs.node = kScalingNodes[axis];
      });
  auto column_of = [&](xbar::Scheme s) -> std::size_t {
    for (std::size_t i = 0; i < grid_schemes.size(); ++i)
      if (grid_schemes[i] == s) return i;
    return 0;
  };

  ReportTable t;
  t.add_column("node", 6, Align::kLeft);
  for (xbar::Scheme s : spec.schemes) t.add_column(scheme_str(s), 9);
  for (std::size_t a = 0; a < kNumScalingNodes; ++a) {
    const xbar::Characterization& base = chars[a * grid_schemes.size()];
    t.begin_row().cell(std::string(tech::itrs_node(kScalingNodes[a]).name));
    for (xbar::Scheme s : spec.schemes) {
      const xbar::Characterization& c =
          chars[a * grid_schemes.size() + column_of(s)];
      t.cell_pct(xbar::relative_saving(base.active_leakage_w,
                                       c.active_leakage_w),
                 1);
    }
  }
  return t;
}

ReportTable static_probability(LainContext& ctx, const ScenarioSpec& spec,
                               const SweepEngine& engine) {
  std::vector<double> ps = spec.probabilities;
  if (ps.empty())
    for (double p = 0.1; p <= 0.91; p += 0.1) ps.push_back(p);

  const std::vector<xbar::Characterization> chars = characterize_grid(
      ctx, engine, ps.size(), spec.schemes,
      [&](xbar::CrossbarSpec& xs, std::size_t axis) {
        xs.static_probability = ps[axis];
      });

  // Pivoted: one row per p, one total-power column per scheme.
  ReportTable t;
  t.add_column("p", 6, Align::kLeft);
  for (xbar::Scheme s : spec.schemes) t.add_column(scheme_str(s) + " mW", 10);
  for (std::size_t a = 0; a < ps.size(); ++a) {
    t.begin_row().cell(ps[a], 1);
    for (std::size_t s = 0; s < spec.schemes.size(); ++s)
      t.cell(to_mW(chars[a * spec.schemes.size() + s].total_power_w), 2);
  }
  return t;
}

ReportTable static_probability_worst_case(LainContext& ctx,
                                          const SweepEngine& engine) {
  std::vector<double> ps;
  for (double p = 0.05; p <= 0.96; p += 0.05) ps.push_back(p);
  const std::vector<xbar::Scheme> schemes = every_scheme();
  const std::vector<xbar::Characterization> chars = characterize_grid(
      ctx, engine, ps.size(), schemes,
      [&](xbar::CrossbarSpec& spec, std::size_t axis) {
        spec.static_probability = ps[axis];
      });

  ReportTable t;
  t.add_column("scheme", 6, Align::kLeft)
      .add_column("worst p", 9)
      .add_column("power mW", 10);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    double worst_p = 0.0, worst = 0.0;
    for (std::size_t a = 0; a < ps.size(); ++a) {
      const double w = chars[a * schemes.size() + s].total_power_w;
      if (w > worst) {
        worst = w;
        worst_p = ps[a];
      }
    }
    t.begin_row().cell(scheme_str(schemes[s])).cell(worst_p, 2).cell(
        to_mW(worst), 2);
  }
  return t;
}

ReportTable breakeven_table(LainContext& ctx, const SweepEngine& engine) {
  const double f = xbar::table1_spec().freq_hz;
  const std::vector<xbar::Characterization> chars =
      at_paper_point(ctx, engine, every_scheme());

  ReportTable t;
  t.add_column("scheme", 6, Align::kLeft)
      .add_column("penalty pJ", 12)
      .add_column("save pJ/cyc", 14)
      .add_column("min idle", 12);
  for (const xbar::Characterization& c : chars) {
    t.begin_row()
        .cell(scheme_str(c.scheme))
        .cell(to_pJ(c.sleep_penalty_j()), 2)
        .cell(to_pJ(c.standby_saving_per_cycle_j(f)), 2)
        .cell(static_cast<std::int64_t>(c.min_idle_cycles));
  }
  return t;
}

ReportTable breakeven_net_energy(LainContext& ctx, const SweepEngine& engine,
                                 int max_idle) {
  const double f = xbar::table1_spec().freq_hz;
  const std::vector<xbar::Characterization> chars =
      at_paper_point(ctx, engine, every_scheme());

  ReportTable t;
  t.add_column("N", 6, Align::kLeft);
  for (const xbar::Characterization& c : chars)
    t.add_column(scheme_str(c.scheme), 10);
  for (int n = 1; n <= max_idle; ++n) {
    t.begin_row().cell(static_cast<std::int64_t>(n));
    for (const xbar::Characterization& c : chars) {
      const double net =
          n * c.standby_saving_per_cycle_j(f) - c.sleep_penalty_j();
      t.cell(to_pJ(net), 2);
    }
  }
  return t;
}

ReportTable breakeven_policy_check(LainContext& ctx, int idle_run_cycles) {
  const xbar::CrossbarSpec spec = xbar::table1_spec();
  const double f = spec.freq_hz;

  ReportTable t;
  t.add_column("scheme", 6, Align::kLeft)
      .add_column("saved pJ", 10)
      .add_column("standby cyc", 12);
  for (xbar::Scheme s : xbar::all_schemes()) {
    const xbar::Characterization& c = ctx.characterization(spec, s);
    power::GatedBlockCosts costs{c.idle_leakage_w, c.standby_leakage_w,
                                 c.sleep_entry_energy_j, c.wakeup_energy_j, f};
    power::SleepController ctl(power::breakeven_policy(costs), costs);
    ctl.tick(true);
    for (int i = 0; i < idle_run_cycles; ++i) ctl.tick(false);
    ctl.tick(true);
    ctl.tick(true);
    t.begin_row()
        .cell(scheme_str(s))
        .cell(to_pJ(ctl.realized_saving_j()), 2)
        .cell(static_cast<std::int64_t>(ctl.standby_cycles()));
  }
  return t;
}

ReportTable segmentation_ablation(LainContext& ctx,
                                  const SweepEngine& engine) {
  const std::vector<xbar::Scheme> schemes{
      xbar::Scheme::kDFC, xbar::Scheme::kSDFC, xbar::Scheme::kDPC,
      xbar::Scheme::kSDPC};
  const std::vector<xbar::Characterization> chars =
      at_paper_point(ctx, engine, schemes);

  ReportTable t;
  t.add_column("pair", 12, Align::kLeft)
      .add_column("component", 16, Align::kLeft)
      .add_column("flat mW", 10)
      .add_column("seg mW", 10)
      .add_column("delta", 8);
  auto compare = [&](const xbar::Characterization& flat,
                     const xbar::Characterization& seg) {
    const std::string pair =
        scheme_str(flat.scheme) + "->" + scheme_str(seg.scheme);
    auto row = [&](const char* component, double base, double v) {
      t.begin_row()
          .cell(pair)
          .cell(component)
          .cell(to_mW(base), 2)
          .cell(to_mW(v), 2)
          .cell_pct(1.0 - v / base, 1);
    };
    row("active leakage", flat.active_leakage_w, seg.active_leakage_w);
    row("standby leakage", flat.standby_leakage_w, seg.standby_leakage_w);
    row("dynamic power", flat.dynamic_power_w, seg.dynamic_power_w);
    row("total power", flat.total_power_w, seg.total_power_w);
  };
  compare(chars[0], chars[1]);
  compare(chars[2], chars[3]);
  return t;
}

}  // namespace lain::core
