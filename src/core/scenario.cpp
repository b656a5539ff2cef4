#include "core/scenario.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "core/bench_suite.hpp"
#include "core/context.hpp"
#include "core/metrics.hpp"
#include "core/table1.hpp"
#include "xbar/spec.hpp"

namespace lain::core {

namespace {

enum FlagKind { kValueFlag, kSwitchFlag };
// Which scenarios accept a flag: every one, the ones that list the
// flag's group, or the ones that list the flag as an axis.
enum FlagGroup { kUniversal, kFault, kTelemetry, kAxis };

struct FlagDecl {
  const char* name;
  FlagKind kind;
  FlagGroup group;
  const char* fallback;  // global default ("" = none)
  const char* help;
};

// Every flag, declared once.  The universal and group flags appear in
// usage text in this order (value flags first); a scenario's axis flags
// follow in the order the scenario lists them.
const FlagDecl kFlags[] = {
    {"threads", kValueFlag, kUniversal, "1",
     "sweep worker threads (0 = all cores; default 1)"},
    {"out", kValueFlag, kUniversal, "",
     "write the table to FILE instead of stdout"},
    {"metrics-window", kValueFlag, kTelemetry, "0",
     "stream windowed metrics every N cycles (0 = off; see\n"
     "                      README \"Observability\" for the JSONL schema)"},
    {"metrics-out", kValueFlag, kTelemetry, "",
     "write the metrics JSONL stream to FILE ('-' = stdout)"},
    {"trace-flits", kValueFlag, kTelemetry, "0",
     "keep the last N per-flit events per shard and dump them\n"
     "                      into the metrics stream (0 = off)"},
    {"abort-on-saturation", kValueFlag, kTelemetry, "0",
     "abort a run whose windowed mean latency exceeds MULT x\n"
     "                      the zero-load reference (needs\n"
     "                      --metrics-window; 0 = off)"},
    {"fault-links", kValueFlag, kFault, "0",
     "kill N inter-router links at --fault-at (deterministic,\n"
     "                      seed-derived victims; see README \"Fault "
     "injection\")"},
    {"fault-routers", kValueFlag, kFault, "0",
     "kill N whole routers (disconnects their nodes, so this\n"
     "                      needs --allow-partition)"},
    {"fault-at", kValueFlag, kFault, "0",
     "fault cycle (0 = at the start of the measurement window)"},
    {"fault-seed", kValueFlag, kFault, "0",
     "independent fault-schedule seed (0 = derive from --seed)"},
    {"fault-repair", kValueFlag, kFault, "0",
     "turn each kill into a transient flap repaired after N\n"
     "                      cycles (0 = permanent)"},
    {"csv", kSwitchFlag, kUniversal, "", "emit CSV instead of the text table"},
    {"json", kSwitchFlag, kUniversal, "", "emit a JSON row array"},
    {"allow-partition", kSwitchFlag, kFault, "",
     "accept a fault schedule that disconnects the fabric and\n"
     "                      account unreachable pairs instead of rejecting "
     "it"},
    {"abort-on-disconnect", kSwitchFlag, kTelemetry, "",
     "abort a run whose fabric has unreachable pairs at a\n"
     "                      window boundary (fail fast instead of running\n"
     "                      degraded; needs --metrics-window)"},
    {"progress", kSwitchFlag, kTelemetry, "",
     "print one stderr line per closed metrics window"},
    {"help", kSwitchFlag, kUniversal, "", "show this scenario's usage"},
    {"sim-threads", kValueFlag, kAxis, "1",
     "shards per simulation (1 = serial kernel, 0 = auto-shard\n"
     "                      by radix; stats bit-identical)"},
    {"partition", kValueFlag, kAxis, "auto",
     "shard partition shape: rows|blocks2d|auto (stats are\n"
     "                      partition-invariant; mesh_scaling takes a list)"},
    {"pin-threads", kSwitchFlag, kAxis, "",
     "pin shard worker threads to cores (Linux; no-op elsewhere)"},
    {"schemes", kValueFlag, kAxis, "all", "e.g. sc,dpc,sdpc or 'all'"},
    {"patterns", kValueFlag, kAxis, "uniform",
     "uniform,transpose,bitcomp,bitrev,hotspot,tornado,neighbor"},
    {"rates", kValueFlag, kAxis, "0.05,0.15,0.30",
     "comma list or start:stop:step, e.g. 0.05:0.45:0.05"},
    {"hotspot-fracs", kValueFlag, kAxis, "0.2",
     "hotspot traffic shares (hotspot pattern)"},
    {"burst-duties", kValueFlag, kAxis, "1.0",
     "on-off duty cycles (1.0 = steady)"},
    {"burst-on-mean", kValueFlag, kAxis, "50",
     "mean ON dwell in cycles (default 50)"},
    {"radices", kValueFlag, kAxis, "4,8", "square fabric radices, e.g. 8,16"},
    {"temps", kValueFlag, kAxis, "25,70,110", "temperatures in C"},
    {"probabilities", kValueFlag, kAxis, "", "static probabilities"},
    {"seed", kValueFlag, kAxis, "1", "base RNG seed (default 1)"},
    {"replicates", kValueFlag, kAxis, "1",
     "derive K independent seeds from --seed"},
    {"no-gating", kSwitchFlag, kAxis, "",
     "disable the Minimum-Idle-Time sleep policy"},
};

const FlagDecl& flag_decl(const std::string& name) {
  for (const FlagDecl& f : kFlags) {
    if (name == f.name) return f;
  }
  throw std::invalid_argument("undeclared flag: --" + name);
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// A scenario's flag list: every flag of `groups`, then `axes`.
std::vector<std::string> flags_of(std::initializer_list<FlagGroup> groups,
                                  std::vector<std::string> axes) {
  std::vector<std::string> out;
  for (const FlagDecl& f : kFlags) {
    if (std::find(groups.begin(), groups.end(), f.group) != groups.end()) {
      out.push_back(f.name);
    }
  }
  out.insert(out.end(), axes.begin(), axes.end());
  return out;
}

// Every flag `sc` accepts, in usage order: the universal and group
// flags in table order, then its axis flags in its own order.
std::vector<const FlagDecl*> accepted_flags(const Scenario& sc) {
  std::vector<const FlagDecl*> out;
  for (const FlagDecl& f : kFlags) {
    if (f.group == kUniversal ||
        (f.group != kAxis && contains(sc.flags, f.name))) {
      out.push_back(&f);
    }
  }
  for (const std::string& name : sc.flags) {
    const FlagDecl& f = flag_decl(name);
    if (f.group == kAxis) out.push_back(&f);
  }
  return out;
}

std::vector<std::string> accepted_of_kind(const Scenario& sc, FlagKind kind) {
  std::vector<std::string> out;
  for (const FlagDecl* f : accepted_flags(sc)) {
    if (f->kind == kind) out.push_back(f->name);
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

std::string thread_banner(const char* prefix, int threads) {
  return format("%s (%d thread%s)\n\n", prefix, threads,
                threads == 1 ? "" : "s");
}

// One usage line per flag `sc` accepts, value flags first.  --help
// goes without saying.
std::string flag_lines(const Scenario& sc) {
  std::string out;
  for (FlagKind kind : {kValueFlag, kSwitchFlag}) {
    for (const FlagDecl* f : accepted_flags(sc)) {
      if (f->kind != kind || std::string(f->name) == "help") continue;
      out += format("  --%-17s %s\n", f->name, f->help);
    }
  }
  return out;
}

// The value of `flag` for this scenario: CLI value, else the
// scenario's default, else the global default.
std::string flag_value(const Scenario& sc, const ArgParser& args,
                       const std::string& flag) {
  auto it = sc.defaults.find(flag);
  return args.get(flag, it != sc.defaults.end() ? it->second
                                                : flag_decl(flag).fallback);
}

// Strict single-integer flag: rejects trailing junk ("2,4") that
// std::stoi would silently truncate.
int single_int(const Scenario& sc, const ArgParser& args,
               const std::string& flag) {
  const std::string v = flag_value(sc, args, flag);
  if (v.empty()) return parse_int_list(flag_decl(flag).fallback).front();
  const std::vector<int> parsed = parse_flag(flag, v, parse_int_list);
  if (parsed.size() != 1) {
    throw std::invalid_argument("--" + flag +
                                " takes a single integer here: " + v);
  }
  return parsed.front();
}

// Rejects an axis value that its run would reject, before anything
// runs: each value goes through the validator the run applies
// (SimConfig::validate, CrossbarSpec::validate), on the canonical
// config with only that value set.  A burst duty is checked at the
// highest rate, since every (rate, duty) pair runs.
void check_axis_values(const ScenarioSpec& s) {
  // Sets one value on a copy of `config` and validates it, naming
  // `flag` in the error.
  auto check = [](const char* flag, auto config, const auto& set) {
    set(config);
    try {
      config.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("--") + flag + ": " + e.what());
    }
  };
  const noc::SimConfig sim =
      default_mesh_config(0.0, noc::TrafficPattern::kUniform);
  const xbar::CrossbarSpec crossbar = xbar::table1_spec();
  double max_rate = 0.0;
  for (const double r : s.rates) {
    check("rates", sim, [r](noc::SimConfig& c) { c.injection_rate = r; });
    max_rate = std::max(max_rate, r);
  }
  for (const double h : s.hotspot_fracs) {
    check("hotspot-fracs", sim,
          [h](noc::SimConfig& c) { c.hotspot_fraction = h; });
  }
  for (const double d : s.burst_duties) {
    check("burst-duties", sim, [d, max_rate](noc::SimConfig& c) {
      c.injection_rate = max_rate;
      c.burst_duty = d;
    });
  }
  const double on_mean = s.burst_on_mean_cycles;
  check("burst-on-mean", sim,
        [on_mean](noc::SimConfig& c) { c.burst_on_mean_cycles = on_mean; });
  for (const int r : s.radices) {
    check("radices", sim,
          [r](noc::SimConfig& c) { c.radix_x = c.radix_y = r; });
  }
  for (const double t : s.temps_c) {
    check("temps", crossbar,
          [t](xbar::CrossbarSpec& x) { x.temp_k = temp_k_of_c(t); });
  }
  for (const double p : s.probabilities) {
    check("probabilities", crossbar,
          [p](xbar::CrossbarSpec& x) { x.static_probability = p; });
  }
}

ScenarioRegistry make_builtin_registry() {
  ScenarioRegistry reg;

  {
    Scenario sc;
    sc.name = "injection_sweep";
    sc.summary = "powered-NoC latency/power sweep (E8)";
    sc.flags = flags_of({kFault, kTelemetry},
                        {"sim-threads", "partition", "schemes", "patterns",
                         "rates", "hotspot-fracs", "burst-duties",
                         "burst-on-mean", "seed", "replicates", "no-gating",
                         "pin-threads"});
    sc.defaults = {{"patterns", "uniform,transpose"}};
    sc.banner = [](const ScenarioSpec&, int threads) {
      return thread_banner(
          "E8: 5x5 mesh, 2 VCs, 4-flit packets; crossbar power "
          "integrated per cycle",
          threads);
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = injection_sweep(ctx, s, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "idle_histogram";
    sc.summary = "crossbar idle-run distribution (E9)";
    sc.flags = flags_of({kFault, kTelemetry},
                        {"sim-threads", "partition", "patterns", "rates",
                         "hotspot-fracs", "burst-duties", "burst-on-mean",
                         "seed", "replicates", "pin-threads"});
    sc.banner = [](const ScenarioSpec&, int threads) {
      return thread_banner(
          "E9: crossbar idle-run distribution, 5x5 mesh", threads);
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = idle_histogram(ctx, s, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "corner_sweep";
    sc.summary = "temperature/corner sensitivity (E12)";
    sc.flags = {"temps", "schemes"};
    sc.defaults = {{"schemes", "sc,dfc,dpc,sdpc"}};
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E12: temperature sensitivity of the leakage rows "
          "(5x5 crossbar, 45 nm)\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = corner_sweep(ctx, s, engine);
      r.extras = [] {
        return "\nDevice-level corner check (1 um NMOS):\n" +
               corner_device_report().to_text();
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "node_scaling";
    sc.summary = "technology-node scaling (E11)";
    sc.flags = {"schemes"};
    sc.defaults = {{"schemes", "sc,dpc,sdpc"}};
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E11: crossbar power across technology nodes (5x5, "
          "128-bit, 3 GHz)\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = node_scaling(ctx, s, engine);
      r.extras = [&ctx, &engine, s] {
        return "\nActive-leakage saving vs SC, by node:\n" +
               node_scaling_savings(ctx, s, engine).to_text();
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "mesh_vs_torus";
    sc.summary = "mesh vs torus topology comparison";
    sc.flags = flags_of({kFault, kTelemetry},
                        {"sim-threads", "partition", "radices", "rates",
                         "patterns", "schemes", "seed", "no-gating",
                         "pin-threads"});
    sc.defaults = {{"schemes", "sdpc"}, {"patterns", "uniform,tornado"}};
    sc.validate = [](const ScenarioSpec& s) {
      if (s.schemes.size() != 1) {
        throw std::invalid_argument(
            "mesh_vs_torus takes a single scheme (the comparison axis is "
            "topology)");
      }
    };
    sc.banner = [](const ScenarioSpec& s, int) {
      return format(
          "Mesh vs torus (%s crossbars; tornado is the classic "
          "torus-friendly adversary)\n\n",
          std::string(xbar::scheme_name(s.schemes.front())).c_str());
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = mesh_vs_torus(ctx, s, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "mesh_scaling";
    sc.summary = "sharded-kernel node-count scaling";
    // The runs take the fault schedule but no telemetry: a sink would
    // perturb the timings this scenario exists to report.
    sc.flags = flags_of({kFault}, {"sim-threads", "partition", "radices",
                                   "rates", "patterns", "seed",
                                   "pin-threads"});
    sc.defaults = {{"radices", "8,16"},
                   {"sim-threads", "1,2,4"},
                   {"partition", "rows,blocks2d"},
                   {"rates", "0.05"},
                   {"patterns", "uniform"}};
    sc.sim_threads_as_list = true;
    sc.partition_as_list = true;
    sc.validate = [](const ScenarioSpec& s) {
      if (s.rates.size() != 1 || s.patterns.size() != 1) {
        throw std::invalid_argument(
            "mesh_scaling takes a single rate and a single pattern (its "
            "axes are radix, partition and shard count)");
      }
    };
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "Sharded-kernel scaling: one simulation timed per "
          "(radix, partition, shard count); 'boundary' is the "
          "plan's cross-shard link count and 'match' pins "
          "bit-identical stats vs the first row\n\n");
    };
    sc.run = [](LainContext&, const ScenarioSpec& s, const SweepEngine&) {
      // Timed sequentially on the calling thread, outside the thread
      // budget on purpose: wall-clock fidelity beats cooperation here.
      ScenarioRun r;
      r.table = mesh_scaling(s);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "static_probability";
    sc.summary = "total power vs static probability (E7)";
    sc.flags = {"probabilities", "schemes"};
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E7: total power (mW) vs static probability "
          "p = P[bit = 1]\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = static_probability(ctx, s, engine);
      r.extras = [&ctx, &engine] {
        return "\nWorst-case check:\n" +
               static_probability_worst_case(ctx, engine).to_text();
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "breakeven";
    sc.summary = "Minimum Idle Time breakeven (E6)";
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E6: Minimum Idle Time breakeven (paper row: SC 3, DFC 2, "
          "DPC 1, SDFC 3, SDPC 1)\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec&,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = breakeven_table(ctx, engine);
      r.extras = [&ctx, &engine] {
        return "\nNet energy of gating one idle run of N cycles (pJ):\n" +
               breakeven_net_energy(ctx, engine).to_text() +
               "\nTimeout-policy check (threshold = min idle, 50-cycle "
               "idle run):\n" +
               breakeven_policy_check(ctx).to_text();
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "segmentation";
    sc.summary = "segmentation ablation (E5)";
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E5: segmentation ablation (paper: 'leakage power is "
          "further reduced by 20% and 30% in SDFC and SDPC')\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec&,
                const SweepEngine& engine) {
      ScenarioRun r;
      r.table = segmentation_ablation(ctx, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "table1";
    sc.summary = "the paper's Table 1 (E1)";
    sc.run = [](LainContext& ctx, const ScenarioSpec&,
                const SweepEngine& engine) {
      const Table1 t = measured_table1(ctx, engine);
      ScenarioRun r;
      r.table = table1_report(t);
      r.extras = [t] {
        return "\nPaper vs measured:\n" + format_comparison(t) + "\n";
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  return reg;
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::add(Scenario scenario) {
  for (const std::string& flag : scenario.flags) flag_decl(flag);
  scenarios_.push_back(std::move(scenario));
  return *this;
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const Scenario& sc : scenarios_) {
    if (sc.name == name) return &sc;
  }
  return nullptr;
}

std::string ScenarioRegistry::usage() const {
  std::string out = "usage: lain_bench <subcommand> [flags]\n\nsubcommands:\n";
  for (const Scenario& sc : scenarios_) {
    out += format("  %-19s %s\n", sc.name.c_str(), sc.summary.c_str());
  }
  // A scenario that lists no flags accepts exactly the universal ones.
  out += "\nuniversal flags:\n" + flag_lines(Scenario{});
  out +=
      "\nEvery subcommand also takes its experiment's axis flags, and the\n"
      "network simulations the fault and telemetry flags; run\n"
      "  lain_bench <subcommand> --help\n"
      "for the exact set, or `lain_bench --list-scenarios` for the\n"
      "one-line scenario list.\n";
  return out;
}

std::string ScenarioRegistry::list() const {
  std::string out;
  for (const Scenario& sc : scenarios_) {
    out += format("%-19s %s\n", sc.name.c_str(), sc.summary.c_str());
  }
  return out;
}

std::string ScenarioRegistry::usage_for(const Scenario& scenario) const {
  return format("usage: lain_bench %s [flags]\n  %s\n\nflags:\n",
                scenario.name.c_str(), scenario.summary.c_str()) +
         flag_lines(scenario);
}

std::vector<std::string> ScenarioRegistry::value_flags_for(
    const Scenario& scenario) const {
  return accepted_of_kind(scenario, kValueFlag);
}

std::vector<std::string> ScenarioRegistry::switch_flags_for(
    const Scenario& scenario) const {
  return accepted_of_kind(scenario, kSwitchFlag);
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry* reg =
      new ScenarioRegistry(make_builtin_registry());
  return *reg;
}

ScenarioSpec build_scenario_spec(const Scenario& sc, const ArgParser& args) {
  ScenarioSpec s;
  auto accepts = [&](const char* flag) { return contains(sc.flags, flag); };
  // A count flag's value `v`, checked against its least legal value.
  auto at_least = [](const char* flag, int v, int least) {
    if (v < least) {
      throw std::invalid_argument(std::string("--") + flag + " must be >= " +
                                  std::to_string(least));
    }
    return v;
  };
  // A count or cycle flag: a non-negative integer, 0 where not accepted.
  auto non_negative = [&](const char* flag) {
    return accepts(flag) ? at_least(flag, single_int(sc, args, flag), 0) : 0;
  };

  s.threads = at_least("threads", single_int(sc, args, "threads"), 0);
  // Telemetry group.
  TelemetryOptions& t = s.run.telemetry;
  t.metrics_window = non_negative("metrics-window");
  t.trace_flits = non_negative("trace-flits");
  if (accepts("metrics-out")) s.metrics_out = args.get("metrics-out", "");
  if (accepts("abort-on-saturation")) {
    t.abort_latency_mult =
        parse_flag("abort-on-saturation",
                   flag_value(sc, args, "abort-on-saturation"), parse_finite);
    if (t.abort_latency_mult < 0.0) {
      throw std::invalid_argument("--abort-on-saturation must be >= 0");
    }
    if (t.abort_latency_mult > 0.0 && t.metrics_window == 0) {
      throw std::invalid_argument(
          "--abort-on-saturation needs --metrics-window (the guard acts "
          "at window boundaries)");
    }
  }
  if (accepts("progress")) s.progress = args.has("progress");
  // Fault group (SimConfig::validate rejects bad combinations per run).
  noc::FaultSpec& f = s.run.fault;
  f.links = non_negative("fault-links");
  f.routers = non_negative("fault-routers");
  f.at = non_negative("fault-at");
  f.repair = non_negative("fault-repair");
  if (accepts("fault-seed")) {
    f.seed =
        parse_flag("fault-seed", flag_value(sc, args, "fault-seed"), parse_u64);
  }
  if (accepts("allow-partition")) {
    f.allow_partition = args.has("allow-partition");
  }
  if (accepts("abort-on-disconnect")) {
    t.abort_on_disconnect = args.has("abort-on-disconnect");
    if (t.abort_on_disconnect && t.metrics_window == 0) {
      throw std::invalid_argument(
          "--abort-on-disconnect needs --metrics-window (the guard acts "
          "at window boundaries)");
    }
  }
  if (accepts("sim-threads")) {
    if (sc.sim_threads_as_list) {
      s.sim_thread_list = parse_flag("sim-threads",
                                     flag_value(sc, args, "sim-threads"),
                                     parse_int_list);
      for (const int v : s.sim_thread_list) at_least("sim-threads", v, 0);
    } else {
      s.run.sim_threads = non_negative("sim-threads");
    }
  }
  if (accepts("partition")) {
    const std::vector<noc::PartitionStrategy> parsed = parse_flag(
        "partition", flag_value(sc, args, "partition"), parse_partitions);
    if (sc.partition_as_list) {
      s.partition_list = parsed;
    } else {
      if (parsed.size() != 1) {
        throw std::invalid_argument(
            "--partition takes a single strategy here: " +
            flag_value(sc, args, "partition"));
      }
      s.run.partition = parsed.front();
    }
  }
  if (accepts("pin-threads")) s.run.pin_threads = args.has("pin-threads");
  auto range_axis = [&](const char* flag) {
    return parse_flag(flag, flag_value(sc, args, flag), parse_range);
  };
  if (accepts("schemes"))
    s.schemes = parse_schemes(flag_value(sc, args, "schemes"));
  if (accepts("patterns"))
    s.patterns = parse_patterns(flag_value(sc, args, "patterns"));
  if (accepts("rates")) s.rates = range_axis("rates");
  if (accepts("hotspot-fracs")) s.hotspot_fracs = range_axis("hotspot-fracs");
  if (accepts("burst-duties")) s.burst_duties = range_axis("burst-duties");
  if (accepts("burst-on-mean")) {
    s.burst_on_mean_cycles =
        parse_flag("burst-on-mean", flag_value(sc, args, "burst-on-mean"),
                   parse_finite);
  }
  if (accepts("temps")) s.temps_c = range_axis("temps");
  if (accepts("probabilities")) {
    const std::string ps = flag_value(sc, args, "probabilities");
    if (!ps.empty()) s.probabilities = parse_flag("probabilities", ps,
                                                  parse_range);
  }
  if (accepts("radices")) {
    s.radices = parse_flag("radices", flag_value(sc, args, "radices"),
                           parse_int_list);
  }
  if (accepts("seed")) {
    s.seed = parse_flag("seed", flag_value(sc, args, "seed"), parse_u64);
  }
  if (accepts("replicates")) {
    const int replicates =
        at_least("replicates", single_int(sc, args, "replicates"), 1);
    if (replicates == 1) {
      s.seeds = {s.seed};
    } else {
      SweepAxes axes;
      axes.replicates(replicates, s.seed);
      s.seeds = axes.seeds;
    }
  } else {
    s.seeds = {s.seed};
  }
  if (accepts("no-gating")) s.gating = !args.has("no-gating");
  check_axis_values(s);
  return s;
}

int recommended_thread_budget(const ScenarioSpec& spec) {
  int budget = hardware_lanes();
  budget = std::max(budget, spec.threads);
  budget = std::max(budget, spec.run.sim_threads);
  return budget;
}

namespace {

enum class OutputFormat { kText, kCsv, kJson };

}  // namespace

int run_scenario_cli(const ScenarioRegistry& registry,
                     const Scenario& scenario, int argc,
                     const char* const* argv) {
  ScenarioSpec spec;
  OutputFormat fmt = OutputFormat::kText;
  std::string out_path;
  try {
    const ArgParser args(argc, argv, registry.value_flags_for(scenario),
                         registry.switch_flags_for(scenario));
    if (args.has("help")) {
      std::fputs(registry.usage_for(scenario).c_str(), stdout);
      return 0;
    }
    if (!args.positionals().empty()) {
      throw std::invalid_argument("unexpected argument: " +
                                  args.positionals().front() +
                                  " (flags are spelled --flag)");
    }
    if (args.has("csv") && args.has("json")) {
      throw std::invalid_argument("--csv and --json are mutually exclusive");
    }
    if (args.has("csv")) fmt = OutputFormat::kCsv;
    if (args.has("json")) fmt = OutputFormat::kJson;
    out_path = args.get("out", "");
    spec = build_scenario_spec(scenario, args);
    if (scenario.validate) scenario.validate(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lain_bench %s: %s\n\n%s", scenario.name.c_str(),
                 e.what(), registry.usage_for(scenario).c_str());
    return 2;
  }

  // CLI-side metrics sinks.  Built before (and alive across) the
  // scenario run; MultiSink fans one run's records out to both
  // emitters when asked for.  A library caller installing its own
  // sink keeps it: the CLI sinks are only added alongside.
  telemetry::MetricsSink*& sink = spec.run.telemetry.sink;
  std::unique_ptr<telemetry::JsonlSink> jsonl_sink;
  telemetry::ProgressSink progress_sink;
  telemetry::MultiSink multi_sink;
  try {
    if (sink != nullptr) multi_sink.add(sink);
    if (!spec.metrics_out.empty()) {
      jsonl_sink = std::make_unique<telemetry::JsonlSink>(spec.metrics_out);
      multi_sink.add(jsonl_sink.get());
    }
    if (spec.progress) multi_sink.add(&progress_sink);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lain_bench %s: %s\n", scenario.name.c_str(),
                 e.what());
    return 2;
  }
  if (multi_sink.size() > 0) sink = &multi_sink;

  ContextOptions copt;
  copt.thread_budget = recommended_thread_budget(spec);
  LainContext ctx(copt);
  const SweepEngine engine = ctx.make_engine(spec.threads);

  const bool text = fmt == OutputFormat::kText;
  if (text && scenario.banner) {
    std::fputs(scenario.banner(spec, engine.threads()).c_str(), stdout);
  }
  const ScenarioRun result = scenario.run(ctx, spec, engine);
  switch (fmt) {
    case OutputFormat::kText:
      write_output(out_path, result.table.to_text());
      break;
    case OutputFormat::kCsv:
      write_output(out_path, result.table.to_csv());
      break;
    case OutputFormat::kJson:
      write_output(out_path, result.table.to_json());
      break;
  }
  if (text && out_path.empty() && result.extras) {
    std::fputs(result.extras().c_str(), stdout);
  }
  return 0;
}

}  // namespace lain::core
