// lain_bench — the experiment CLI over the scenario registry: every
// experiment of the reproduction (Table 1, E5-E12, the topology and
// scaling studies) is one of its subcommands.
//
//   lain_bench <subcommand> [--threads N] [--csv | --json] [--out FILE]
//              [the subcommand's own flags...]
//   lain_bench --scenario-file FILE [shared flags...]
//   lain_bench --list-scenarios
//   lain_bench <subcommand> --help
//
// The subcommands, their axis flags and their usage text all come
// from core::ScenarioRegistry::builtin(); the per-subcommand driver
// (flag parsing, context sizing, output emission) is
// core::run_scenario_cli.  Unknown subcommands and flags a scenario
// does not accept fail with the registry-derived usage and exit 2.
//
// Beyond the four universal flags above, each subcommand takes its
// axis flags, and the subcommands that simulate a network the fault
// group (--fault-*, --allow-partition) and — all but mesh_scaling —
// the telemetry group (--metrics-*, --trace-flits, --progress,
// --abort-on-*).  The circuit subcommands (table1, corner_sweep,
// node_scaling, static_probability, breakeven, segmentation) take
// neither group.
//
// --threads parallelizes across sweep jobs; --sim-threads shards one
// simulation across a thread-pool kernel and --partition picks the
// shard shape (stats are bit-identical at any value of either).  Axis
// flags take comma lists or start:stop:step ranges:
//   lain_bench injection_sweep --threads 8 --rates 0.05:0.45:0.05
//       --patterns uniform,transpose,tornado --schemes all --replicates 3
//   lain_bench mesh_scaling --radices 16,32 --partition rows,blocks2d
//
// The telemetry flags stream every simulation in the run:
//   lain_bench injection_sweep --rates 0.10 --metrics-window 500
//       --metrics-out metrics.jsonl --progress --trace-flits 256
// See README "Observability" for the JSONL schema.
//
// --scenario-file runs a batch of jobs from a JSONL file (one job
// object per line — the same wire format lain_serve accepts); any
// further flags are shared across the jobs and override the file, so
// each must be one every job's scenario accepts:
//   lain_bench --scenario-file jobs.jsonl --csv --threads 4
// See README "Sweep service" for the job schema.

#include <cstdio>
#include <exception>
#include <string>

#include "core/scenario.hpp"
#include "core/scenario_json.hpp"

using namespace lain::core;

namespace {

int run(int argc, char** argv) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  if (argc < 2) {
    std::fputs(registry.usage().c_str(), stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::fputs(registry.usage().c_str(), stdout);
    return 0;
  }
  if (cmd == "--list-scenarios") {
    std::fputs(registry.list().c_str(), stdout);
    return 0;
  }
  if (cmd == "--scenario-file") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fputs("lain_bench: --scenario-file needs a FILE argument\n",
                 stderr);
      return 2;
    }
    return run_scenario_file_cli(registry, argv[2], argc - 3, argv + 3);
  }
  const Scenario* scenario = registry.find(cmd);
  if (!scenario) {
    std::fprintf(stderr, "lain_bench: unknown subcommand: %s\n\n%s",
                 cmd.c_str(), registry.usage().c_str());
    return 2;
  }
  return run_scenario_cli(registry, *scenario, argc - 2, argv + 2);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lain_bench: %s\n", e.what());
    return 1;
  }
}
