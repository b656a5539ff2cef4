// scenario.hpp — the declarative scenario layer over the bench suite.
//
// A ScenarioSpec is the plain-data description of one experiment
// invocation: which axes to expand (schemes, patterns, rates, ...),
// how to derive seeds, and how many sweep/simulation worker lanes to
// ask the context's ThreadBudget for.  A Scenario couples a name and
// help text with (a) the axis flags it accepts — the CLI rejects
// everything else, with per-scenario usage — and (b) a runner that
// folds the spec into a ReportTable through a LainContext.
//
// The ScenarioRegistry holds the built-in scenarios (one per
// lain_bench subcommand); the CLI auto-generates its subcommand
// dispatch, `--list-scenarios`, and per-scenario `--help` from it
// instead of hand-wiring a dispatch chain.  Out-of-tree tools can
// build their own registry and register custom scenarios.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/experiments.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"

namespace lain::core {

class LainContext;

// Plain-data description of one experiment invocation, produced from
// CLI flags (build_scenario_spec) or filled directly by library
// callers.  Fields a scenario does not accept keep their defaults.
struct ScenarioSpec {
  int threads = 1;       // sweep worker lanes (0 = all cores)
  // Engine options of every simulation the scenario runs: the
  // universal --fault-* and telemetry flags, plus
  // --sim-threads (0 = auto, 1 = serial), --partition and --pin-threads
  // where the scenario accepts them.  Ignored by scenarios without a
  // cycle-accurate simulation.  run.telemetry.sink is filled by the CLI
  // driver from --metrics-out/--progress; library callers may install
  // any MetricsSink (not owned; must outlive the run), and serve
  // callers a cancel flag.
  RunOptions run;
  // mesh_scaling's axes, in place of run.sim_threads / run.partition.
  std::vector<int> sim_thread_list{1, 2, 4};
  std::vector<noc::PartitionStrategy> partition_list{
      noc::PartitionStrategy::kRowBands, noc::PartitionStrategy::kBlocks2D};

  std::vector<xbar::Scheme> schemes;
  std::vector<noc::TrafficPattern> patterns;
  std::vector<double> rates;
  std::vector<double> hotspot_fracs{0.2};
  std::vector<double> burst_duties{1.0};
  double burst_on_mean_cycles = 50.0;
  std::vector<double> temps_c;
  std::vector<double> probabilities;  // empty = experiment default
  std::vector<int> radices;

  std::uint64_t seed = 1;
  std::vector<std::uint64_t> seeds{1};  // expanded from seed/replicates
  bool gating = true;

  // CLI-side metrics emitters, installed by run_scenario_cli.
  std::string metrics_out;            // --metrics-out FILE ('-' = stdout)
  bool progress = false;              // --progress: stderr window lines
};

// What a scenario produced.  Table scenarios fill `table`; text-only
// scenarios (table1) fill `preformatted` instead.  `extras` lazily
// renders the companion sections a scenario prints after its main
// table in text mode on stdout (device-corner check, savings matrix,
// ...); it is only invoked — and its work only done — in that mode.
// Lifetime contract: `extras` may capture the context and engine that
// were passed to Scenario::run, so invoke it only while both are
// still alive (the CLI driver does; scoped library callers must too).
struct ScenarioRun {
  std::optional<ReportTable> table;
  std::string preformatted;
  std::function<std::string()> extras;
};

struct Scenario {
  std::string name;
  std::string summary;  // one line for the subcommand list

  // Axis flags this scenario accepts, beyond the universal set
  // (--threads/--csv/--json/--out/--help).  Flags not listed here are
  // rejected with the scenario's usage text.
  std::vector<std::string> value_flags;
  std::vector<std::string> switch_flags;
  // Per-flag default overrides; flags absent here use the global
  // defaults (see flag_default()).
  std::map<std::string, std::string> defaults;
  bool sim_threads_as_list = false;  // mesh_scaling: --sim-threads is an axis
  bool partition_as_list = false;    // mesh_scaling: --partition is an axis
  bool text_only = false;            // table1: no --csv/--json

  // Optional spec validation (throws std::invalid_argument).
  std::function<void(const ScenarioSpec&)> validate;
  // Optional text-mode banner, printed before the table.
  std::function<std::string(const ScenarioSpec&, int engine_threads)> banner;
  // The experiment itself.
  std::function<ScenarioRun(LainContext&, const ScenarioSpec&,
                            const SweepEngine&)>
      run;
};

class ScenarioRegistry {
 public:
  ScenarioRegistry& add(Scenario scenario);

  const Scenario* find(const std::string& name) const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  // Registry-derived CLI help: the full usage page, the one-line
  // `--list-scenarios` listing, and a per-scenario usage page with
  // exactly the flags that scenario accepts.
  std::string usage() const;
  std::string list() const;
  std::string usage_for(const Scenario& scenario) const;

  // Flag sets to construct an ArgParser with: universal + scenario.
  std::vector<std::string> value_flags_for(const Scenario& scenario) const;
  std::vector<std::string> switch_flags_for(const Scenario& scenario) const;

  // The built-in scenarios behind the lain_bench subcommands.
  static const ScenarioRegistry& builtin();

 private:
  std::vector<Scenario> scenarios_;
};

// Global default value of an axis flag ("" when the flag has none).
std::string flag_default(const std::string& flag);

// Parses the flags a scenario accepts into a ScenarioSpec, applying
// the scenario's (then the global) defaults.  Throws
// std::invalid_argument on malformed values.
ScenarioSpec build_scenario_spec(const Scenario& scenario,
                                 const ArgParser& args);

// The worker-lane budget a spec calls for: hardware concurrency, but
// never less than any explicitly requested parallelism level — each
// level can be satisfied alone; it is their product that gets capped.
int recommended_thread_budget(const ScenarioSpec& spec);

// Parses `scenario`'s flags (argc/argv starting at the first flag),
// sizes a LainContext, runs the scenario and emits its output — the
// whole CLI driver behind one lain_bench subcommand.  Returns the
// process exit code (2 on flag errors, with usage on stderr).
int run_scenario_cli(const ScenarioRegistry& registry,
                     const Scenario& scenario, int argc,
                     const char* const* argv);

}  // namespace lain::core
