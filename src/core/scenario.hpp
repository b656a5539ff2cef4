// scenario.hpp — the declarative scenario layer over the bench suite.
//
// A ScenarioSpec (core/experiments.hpp) is the plain-data description
// of one experiment invocation: which axes to expand (schemes,
// patterns, rates, ...), how to derive seeds, and how many
// sweep/simulation worker lanes to ask the context's ThreadBudget for.
// A Scenario couples a name and help text with (a) the flags it
// accepts — the CLI rejects everything else, with per-scenario usage —
// and (b) a runner that folds the spec into a ReportTable through a
// LainContext.
//
// Every flag is declared once, in scenario.cpp's flag table, with its
// kind (value or switch), global default and help line.  Every
// scenario accepts the universal flags (--threads, --out, --csv,
// --json, --help); the rest it lists: its axis flags and, for the
// scenarios that simulate a network, the fault group (--fault-*,
// --allow-partition) and — except mesh_scaling, whose timed runs
// attach no telemetry — the telemetry group (--metrics-*,
// --trace-flits, --progress, --abort-on-*).
//
// The ScenarioRegistry holds the built-in scenarios (one per
// lain_bench subcommand); the CLI auto-generates its subcommand
// dispatch, `--list-scenarios`, and per-scenario `--help` from it
// instead of hand-wiring a dispatch chain.  Out-of-tree tools can
// build their own registry and register custom scenarios.

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/experiments.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"

namespace lain::core {

class LainContext;

// What a scenario produced: its main `table`, which the CLI renders
// as text, CSV or JSON.  `extras` lazily renders the companion
// sections a scenario prints after its main table in text mode on
// stdout (device-corner check, savings matrix, paper-vs-measured
// comparison, ...); it is only invoked — and its work only done — in
// that mode.  Lifetime contract: `extras` may capture the context and
// engine that were passed to Scenario::run, so invoke it only while
// both are still alive (the CLI driver does; scoped library callers
// must too).
struct ScenarioRun {
  ReportTable table;
  std::function<std::string()> extras;
};

struct Scenario {
  std::string name;
  std::string summary;  // one line for the subcommand list

  // Flags this scenario accepts beyond the universal set
  // (--threads/--out/--csv/--json/--help), each declared in the flag
  // table.  Flags not listed here are rejected with the scenario's
  // usage text.
  std::vector<std::string> flags;
  // Per-flag default overrides; flags absent here use the flag table's
  // global defaults.
  std::map<std::string, std::string> defaults;
  bool sim_threads_as_list = false;  // mesh_scaling: --sim-threads is an axis
  bool partition_as_list = false;    // mesh_scaling: --partition is an axis

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
  // Throws std::invalid_argument when the scenario lists a flag the
  // flag table does not declare.
  ScenarioRegistry& add(Scenario scenario);

  const Scenario* find(const std::string& name) const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }

  // Registry-derived CLI help: the full usage page, the one-line
  // `--list-scenarios` listing, and a per-scenario usage page with
  // exactly the flags that scenario accepts.
  std::string usage() const;
  std::string list() const;
  std::string usage_for(const Scenario& scenario) const;

  // The flags a scenario accepts (universal + its own), split by kind
  // to construct an ArgParser with.
  std::vector<std::string> value_flags_for(const Scenario& scenario) const;
  std::vector<std::string> switch_flags_for(const Scenario& scenario) const;

  // The built-in scenarios behind the lain_bench subcommands.
  static const ScenarioRegistry& builtin();

 private:
  std::vector<Scenario> scenarios_;
};

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
