#include "core/scenario.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "core/bench_suite.hpp"
#include "core/context.hpp"
#include "core/metrics.hpp"
#include "core/table1.hpp"

namespace lain::core {

namespace {

// Universal flags every scenario accepts (parsed by the CLI driver,
// not by build_scenario_spec — except --threads).
const std::vector<std::string> kUniversalValueFlags = {
    "threads",     "out",           "metrics-window",
    "metrics-out", "trace-flits",   "abort-on-saturation",
    "fault-links", "fault-routers", "fault-at",
    "fault-seed",  "fault-repair"};
const std::vector<std::string> kUniversalSwitchFlags = {
    "csv", "json", "allow-partition", "abort-on-disconnect", "progress",
    "help"};

struct FlagHelp {
  const char* flag;
  const char* help;
};
// One help line per known flag; shared across scenarios so the usage
// text stays consistent however the scenarios combine them.
const FlagHelp kFlagHelp[] = {
    {"threads", "sweep worker threads (0 = all cores; default 1)"},
    {"sim-threads",
     "shards per simulation (1 = serial kernel, 0 = auto-shard\n"
     "                      by radix; stats bit-identical)"},
    {"partition",
     "shard partition shape: rows|blocks2d|auto (stats are\n"
     "                      partition-invariant; mesh_scaling takes a list)"},
    {"pin-threads",
     "pin shard worker threads to cores (Linux; no-op elsewhere)"},
    {"csv", "emit CSV instead of the text table"},
    {"json", "emit a JSON row array"},
    {"out", "write the table to FILE instead of stdout"},
    {"metrics-window",
     "stream windowed metrics every N cycles (0 = off; see\n"
     "                      README \"Observability\" for the JSONL schema)"},
    {"metrics-out",
     "write the metrics JSONL stream to FILE ('-' = stdout)"},
    {"trace-flits",
     "keep the last N per-flit events per shard and dump them\n"
     "                      into the metrics stream (0 = off)"},
    {"abort-on-saturation",
     "abort a run whose windowed mean latency exceeds MULT x\n"
     "                      the zero-load reference (needs\n"
     "                      --metrics-window; 0 = off)"},
    {"fault-links",
     "kill N inter-router links at --fault-at (deterministic,\n"
     "                      seed-derived victims; see README \"Fault "
     "injection\")"},
    {"fault-routers",
     "kill N whole routers (disconnects their nodes, so this\n"
     "                      needs --allow-partition)"},
    {"fault-at",
     "fault cycle (0 = at the start of the measurement window)"},
    {"fault-seed",
     "independent fault-schedule seed (0 = derive from --seed)"},
    {"fault-repair",
     "turn each kill into a transient flap repaired after N\n"
     "                      cycles (0 = permanent)"},
    {"allow-partition",
     "accept a fault schedule that disconnects the fabric and\n"
     "                      account unreachable pairs instead of rejecting "
     "it"},
    {"abort-on-disconnect",
     "abort a run whose fabric has unreachable pairs at a\n"
     "                      window boundary (fail fast instead of running\n"
     "                      degraded; needs --metrics-window)"},
    {"progress", "print one stderr line per closed metrics window"},
    {"help", "show this scenario's usage"},
    {"schemes", "e.g. sc,dpc,sdpc or 'all'"},
    {"patterns",
     "uniform,transpose,bitcomp,bitrev,hotspot,tornado,neighbor"},
    {"rates", "comma list or start:stop:step, e.g. 0.05:0.45:0.05"},
    {"hotspot-fracs", "hotspot traffic shares (hotspot pattern)"},
    {"burst-duties", "on-off duty cycles (1.0 = steady)"},
    {"burst-on-mean", "mean ON dwell in cycles (default 50)"},
    {"radices", "square fabric radices, e.g. 8,16"},
    {"temps", "temperatures in C"},
    {"probabilities", "static probabilities"},
    {"seed", "base RNG seed (default 1)"},
    {"replicates", "derive K independent seeds from --seed"},
    {"no-gating", "disable the Minimum-Idle-Time sleep policy"},
};

struct FlagDefault {
  const char* flag;
  const char* value;
};
const FlagDefault kFlagDefaults[] = {
    {"threads", "1"},       {"sim-threads", "1"},
    {"metrics-window", "0"},
    {"trace-flits", "0"},
    {"abort-on-saturation", "0"},
    {"fault-links", "0"},   {"fault-routers", "0"},
    {"fault-at", "0"},      {"fault-seed", "0"},
    {"fault-repair", "0"},
    {"partition", "auto"},
    {"schemes", "all"},     {"patterns", "uniform"},
    {"rates", "0.05,0.15,0.30"},
    {"hotspot-fracs", "0.2"},
    {"burst-duties", "1.0"},
    {"burst-on-mean", "50"},
    {"radices", "4,8"},     {"temps", "25,70,110"},
    {"probabilities", ""},  {"seed", "1"},
    {"replicates", "1"},
};

const char* help_for(const std::string& flag) {
  for (const FlagHelp& h : kFlagHelp) {
    if (flag == h.flag) return h.help;
  }
  return "";
}

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
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

// The value of `flag` for this scenario: CLI value, else the
// scenario's default, else the global default.
std::string flag_value(const Scenario& sc, const ArgParser& args,
                       const std::string& flag) {
  auto it = sc.defaults.find(flag);
  return args.get(flag, it != sc.defaults.end() ? it->second
                                                : flag_default(flag));
}

// Wraps an axis/number parser so malformed values name the flag
// instead of surfacing std::sto*'s bare "stod" message.
template <typename Fn>
auto parse_flag(const std::string& flag, const std::string& value, Fn fn)
    -> decltype(fn(value)) {
  try {
    return fn(value);
  } catch (const std::exception& e) {
    throw std::invalid_argument("--" + flag + ": cannot parse '" + value +
                                "' (" + e.what() + ")");
  }
}

// Strict single-integer flag: rejects trailing junk ("2,4") that
// std::stoi would silently truncate.
int single_int(const Scenario& sc, const ArgParser& args,
               const std::string& flag) {
  const std::string v = flag_value(sc, args, flag);
  if (v.empty()) return parse_int_list(flag_default(flag)).front();
  const std::vector<int> parsed = parse_flag(flag, v, parse_int_list);
  if (parsed.size() != 1) {
    throw std::invalid_argument("--" + flag +
                                " takes a single integer here: " + v);
  }
  return parsed.front();
}

ScenarioRegistry make_builtin_registry() {
  ScenarioRegistry reg;

  {
    Scenario sc;
    sc.name = "injection_sweep";
    sc.summary = "powered-NoC latency/power sweep (E8)";
    sc.value_flags = {"sim-threads",  "partition",     "schemes",
                      "patterns",     "rates",         "hotspot-fracs",
                      "burst-duties", "burst-on-mean", "seed",
                      "replicates"};
    sc.switch_flags = {"no-gating", "pin-threads"};
    sc.defaults = {{"patterns", "uniform,transpose"}};
    sc.banner = [](const ScenarioSpec&, int threads) {
      return thread_banner(
          "E8: 5x5 mesh, 2 VCs, 4-flit packets; crossbar power "
          "integrated per cycle",
          threads);
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      NocSweepOptions opt;
      opt.schemes = s.schemes;
      opt.patterns = s.patterns;
      opt.rates = s.rates;
      opt.hotspot_fracs = s.hotspot_fracs;
      opt.burst_duties = s.burst_duties;
      opt.burst_on_mean_cycles = s.burst_on_mean_cycles;
      opt.seeds = s.seeds;
      opt.gating = s.gating;
      opt.run = s.run;
      ScenarioRun r;
      r.table = injection_sweep(ctx, opt, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "idle_histogram";
    sc.summary = "crossbar idle-run distribution (E9)";
    sc.value_flags = {"sim-threads",   "partition",    "patterns",
                      "rates",         "hotspot-fracs", "burst-duties",
                      "burst-on-mean", "seed",         "replicates"};
    sc.switch_flags = {"pin-threads"};
    sc.banner = [](const ScenarioSpec&, int threads) {
      return thread_banner(
          "E9: crossbar idle-run distribution, 5x5 mesh", threads);
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      IdleHistogramOptions opt;
      opt.patterns = s.patterns;
      opt.rates = s.rates;
      opt.hotspot_fracs = s.hotspot_fracs;
      opt.burst_duties = s.burst_duties;
      opt.burst_on_mean_cycles = s.burst_on_mean_cycles;
      opt.seeds = s.seeds;
      opt.run = s.run;
      ScenarioRun r;
      r.table = idle_histogram(ctx, opt, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "corner_sweep";
    sc.summary = "temperature/corner sensitivity (E12)";
    sc.value_flags = {"temps", "schemes"};
    sc.defaults = {{"schemes", "sc,dfc,dpc,sdpc"}};
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E12: temperature sensitivity of the leakage rows "
          "(5x5 crossbar, 45 nm)\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      CornerSweepOptions opt;
      opt.temps_c = s.temps_c;
      opt.schemes = s.schemes;
      ScenarioRun r;
      r.table = corner_sweep(ctx, opt, engine);
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
    sc.value_flags = {"schemes"};
    sc.defaults = {{"schemes", "sc,dpc,sdpc"}};
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E11: crossbar power across technology nodes (5x5, "
          "128-bit, 3 GHz)\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      NodeScalingOptions opt;
      opt.schemes = s.schemes;
      ScenarioRun r;
      r.table = node_scaling(ctx, opt, engine);
      r.extras = [&ctx, &engine, opt] {
        return "\nActive-leakage saving vs SC, by node:\n" +
               node_scaling_savings(ctx, opt, engine).to_text();
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "mesh_vs_torus";
    sc.summary = "mesh vs torus topology comparison";
    sc.value_flags = {"sim-threads", "partition", "radices", "rates",
                      "patterns",    "schemes",   "seed"};
    sc.switch_flags = {"no-gating", "pin-threads"};
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
      MeshVsTorusOptions opt;
      opt.radices = s.radices;
      opt.rates = s.rates;
      opt.patterns = s.patterns;
      opt.scheme = s.schemes.front();
      opt.seed = s.seed;
      opt.gating = s.gating;
      opt.run = s.run;
      ScenarioRun r;
      r.table = mesh_vs_torus(ctx, opt, engine);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "mesh_scaling";
    sc.summary = "sharded-kernel node-count scaling";
    sc.value_flags = {"sim-threads", "partition", "radices", "rates",
                      "patterns",    "seed"};
    sc.switch_flags = {"pin-threads"};
    sc.defaults = {{"radices", "8,16"},
                   {"sim-threads", "1,2,4"},
                   {"partition", "rows,blocks2d"},
                   {"rates", "0.05"},
                   {"patterns", "uniform"}};
    sc.sim_threads_as_list = true;
    sc.partition_as_list = true;
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
      MeshScalingOptions opt;
      opt.radices = s.radices;
      opt.partitions = s.partition_list;
      opt.shard_counts = s.sim_thread_list;
      opt.run = s.run;
      opt.injection_rate = s.rates.front();
      opt.pattern = s.patterns.front();
      opt.seed = s.seed;
      ScenarioRun r;
      r.table = mesh_scaling(opt);
      return r;
    };
    reg.add(std::move(sc));
  }

  {
    Scenario sc;
    sc.name = "static_probability";
    sc.summary = "total power vs static probability (E7)";
    sc.value_flags = {"probabilities", "schemes"};
    sc.banner = [](const ScenarioSpec&, int) {
      return std::string(
          "E7: total power (mW) vs static probability "
          "p = P[bit = 1]\n\n");
    };
    sc.run = [](LainContext& ctx, const ScenarioSpec& s,
                const SweepEngine& engine) {
      StaticProbabilityOptions opt;
      opt.probabilities = s.probabilities;
      opt.schemes = s.schemes;
      ScenarioRun r;
      r.table = static_probability(ctx, opt, engine);
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
               breakeven_policy_check().to_text();
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
    sc.text_only = true;
    sc.run = [](LainContext&, const ScenarioSpec&, const SweepEngine&) {
      const Table1 t = make_table1();
      ScenarioRun r;
      r.preformatted = t.formatted + "\n";
      r.extras = [t] {
        return "Paper vs measured:\n" + format_comparison(t) + "\n";
      };
      return r;
    };
    reg.add(std::move(sc));
  }

  return reg;
}

}  // namespace

std::string flag_default(const std::string& flag) {
  for (const FlagDefault& d : kFlagDefaults) {
    if (flag == d.flag) return d.value;
  }
  return "";
}

ScenarioRegistry& ScenarioRegistry::add(Scenario scenario) {
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
  out += "\nuniversal flags:\n";
  for (const std::string& f : kUniversalValueFlags) {
    out += format("  --%-17s %s\n", f.c_str(), help_for(f));
  }
  for (const std::string& f : kUniversalSwitchFlags) {
    if (f != "help") out += format("  --%-17s %s\n", f.c_str(), help_for(f));
  }
  out +=
      "\nEvery subcommand also takes its experiment's axis flags; run\n"
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
  std::string out = format("usage: lain_bench %s [flags]\n  %s\n\nflags:\n",
                           scenario.name.c_str(), scenario.summary.c_str());
  auto flag_line = [&](const std::string& flag) {
    out += format("  --%-17s %s\n", flag.c_str(), help_for(flag));
  };
  for (const std::string& f : kUniversalValueFlags) flag_line(f);
  for (const std::string& f : scenario.value_flags) flag_line(f);
  for (const std::string& f : kUniversalSwitchFlags) {
    if (f == "help") continue;
    // text_only scenarios reject the structured emitters.
    if (scenario.text_only && (f == "csv" || f == "json")) continue;
    flag_line(f);
  }
  for (const std::string& f : scenario.switch_flags) flag_line(f);
  return out;
}

std::vector<std::string> ScenarioRegistry::value_flags_for(
    const Scenario& scenario) const {
  std::vector<std::string> flags = kUniversalValueFlags;
  flags.insert(flags.end(), scenario.value_flags.begin(),
               scenario.value_flags.end());
  return flags;
}

std::vector<std::string> ScenarioRegistry::switch_flags_for(
    const Scenario& scenario) const {
  std::vector<std::string> flags = kUniversalSwitchFlags;
  flags.insert(flags.end(), scenario.switch_flags.begin(),
               scenario.switch_flags.end());
  return flags;
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry* reg =
      new ScenarioRegistry(make_builtin_registry());
  return *reg;
}

ScenarioSpec build_scenario_spec(const Scenario& sc, const ArgParser& args) {
  ScenarioSpec s;
  auto accepts = [&](const char* flag) {
    return contains(sc.value_flags, flag) || contains(sc.switch_flags, flag);
  };

  s.threads = single_int(sc, args, "threads");
  // Universal streaming-telemetry flags (every scenario accepts them;
  // scenarios without a cycle-accurate simulation just ignore them).
  TelemetryOptions& t = s.run.telemetry;
  {
    const int window = single_int(sc, args, "metrics-window");
    if (window < 0) {
      throw std::invalid_argument("--metrics-window must be >= 0");
    }
    t.metrics_window = static_cast<noc::Cycle>(window);
    const int trace = single_int(sc, args, "trace-flits");
    if (trace < 0) {
      throw std::invalid_argument("--trace-flits must be >= 0");
    }
    t.trace_flits = trace;
    s.metrics_out = args.get("metrics-out", "");
    t.abort_latency_mult = parse_flag(
        "abort-on-saturation", flag_value(sc, args, "abort-on-saturation"),
        [](const std::string& v) { return std::stod(v); });
    if (t.abort_latency_mult < 0.0) {
      throw std::invalid_argument("--abort-on-saturation must be >= 0");
    }
    if (t.abort_latency_mult > 0.0 && t.metrics_window == 0) {
      throw std::invalid_argument(
          "--abort-on-saturation needs --metrics-window (the guard acts "
          "at window boundaries)");
    }
  }
  s.progress = args.has("progress");
  // Universal fault-injection flags (same contract as the telemetry
  // flags above: scenarios without a cycle-accurate simulation ignore
  // them; SimConfig::validate rejects bad combinations per-run).
  {
    noc::FaultSpec& f = s.run.fault;
    f.links = single_int(sc, args, "fault-links");
    f.routers = single_int(sc, args, "fault-routers");
    if (f.links < 0 || f.routers < 0) {
      throw std::invalid_argument("--fault-links/--fault-routers must be >= 0");
    }
    const int at = single_int(sc, args, "fault-at");
    const int repair = single_int(sc, args, "fault-repair");
    if (at < 0 || repair < 0) {
      throw std::invalid_argument("--fault-at/--fault-repair must be >= 0");
    }
    f.at = static_cast<noc::Cycle>(at);
    f.repair = static_cast<noc::Cycle>(repair);
    f.seed = parse_flag(
        "fault-seed", flag_value(sc, args, "fault-seed"),
        [](const std::string& v) { return std::stoull(v); });
    f.allow_partition = args.has("allow-partition");
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
    } else {
      s.run.sim_threads = single_int(sc, args, "sim-threads");
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
                   [](const std::string& v) { return std::stod(v); });
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
    s.seed = parse_flag("seed", flag_value(sc, args, "seed"),
                        [](const std::string& v) { return std::stoull(v); });
  }
  if (accepts("replicates")) {
    const int replicates =
        parse_flag("replicates", flag_value(sc, args, "replicates"),
                   [](const std::string& v) { return std::stoi(v); });
    if (replicates <= 1) {
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
    if (scenario.text_only && fmt != OutputFormat::kText) {
      throw std::invalid_argument(
          scenario.name + " emits a preformatted text table; --csv/--json "
          "are not supported here");
    }
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
  if (scenario.text_only) {
    write_output(out_path, result.preformatted);
  } else if (result.table.has_value()) {
    switch (fmt) {
      case OutputFormat::kText:
        write_output(out_path, result.table->to_text());
        break;
      case OutputFormat::kCsv:
        write_output(out_path, result.table->to_csv());
        break;
      case OutputFormat::kJson:
        write_output(out_path, result.table->to_json());
        break;
    }
  } else {
    throw std::runtime_error("scenario '" + scenario.name +
                             "' produced no table");
  }
  if (text && out_path.empty() && result.extras) {
    std::fputs(result.extras().c_str(), stdout);
  }
  return 0;
}

}  // namespace lain::core
