// scenario_json.hpp — the JSON wire format for scenario jobs.
//
// A ScenarioJobSpec is one scenario invocation as plain data: the
// scenario name plus exactly the flag/value pairs the CLI would have
// taken.  Its JSON form is a flat one-line object,
//
//   {"scenario":"injection_sweep","rates":"0.05","no-gating":true}
//
// where every key besides "scenario" is one of that scenario's flags:
// value flags carry a string (or bare number), switch flags carry
// true.  Lines are read and written by the core/json.hpp codec.
// Parsing is strict — a repeated key is malformed JSON, and an
// unknown key is rejected with the scenario's flag list, mirroring
// the registry CLI's foreign-flag exit-2 behavior — and conversion to
// a ScenarioSpec goes through the very same ArgParser +
// build_scenario_spec path as the CLI, so the wire format cannot
// drift from the flags.
//
// Consumers: `lain_bench --scenario-file FILE` (one job per line,
// batch) and the lain_serve daemon (one job per submit frame).

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "core/scenario.hpp"

namespace lain::core {

// One scenario invocation as data.  `values` holds value-flag pairs
// in wire order; `switches` the switch flags present (value true).
struct ScenarioJobSpec {
  std::string scenario;
  std::vector<std::pair<std::string, std::string>> values;
  std::vector<std::string> switches;
};

// Builds a job from already-parsed fields, ignoring `ignore_keys`
// (protocol envelope keys like "type").  Same strictness as
// scenario_job_from_json.
ScenarioJobSpec scenario_job_from_fields(const ScenarioRegistry& registry,
                                         const std::vector<JsonField>& fields,
                                         const std::vector<std::string>&
                                             ignore_keys = {});

// One-line JSON encoding ("scenario" first, then flags in spec
// order).  Value flags are always emitted as strings, so the encoding
// of a parsed job round-trips byte-identically.
std::string to_json(const ScenarioJobSpec& job);

// Parses one job line.  Throws std::invalid_argument on malformed
// JSON (a repeated key included), a missing/unknown scenario, an
// unknown flag key for that scenario, or a mistyped value (switch
// flags must be boolean; value flags string or number).  `false` for
// a switch means "absent".
ScenarioJobSpec scenario_job_from_json(const ScenarioRegistry& registry,
                                       const std::string& line);

// The argv the CLI would have received for this job (flags only, no
// argv[0]/subcommand): "--flag", "value", ... then "--switch", ...
std::vector<std::string> scenario_job_argv(const ScenarioJobSpec& job);

// Parses the job's flags through the scenario's ArgParser — the
// identical path the CLI takes — and returns the resulting spec.
// `extra_argv` entries are prepended, so they override the job's own
// flags (ArgParser keeps the first occurrence).
ScenarioSpec build_scenario_spec(const ScenarioRegistry& registry,
                                 const ScenarioJobSpec& job,
                                 const std::vector<std::string>& extra_argv);

// Batch driver behind `lain_bench --scenario-file FILE`: one job per
// line (blank lines and '#' comments skipped), each run through
// run_scenario_cli with `extra_argc/extra_argv` prepended (so shared
// flags like --csv or --threads apply to every job; a shared flag some
// job's scenario does not accept fails that job with exit 2).  Stops
// at the first failing job and returns its exit code; 0 when all jobs
// ran.
int run_scenario_file_cli(const ScenarioRegistry& registry,
                          const std::string& path, int extra_argc,
                          const char* const* extra_argv);

}  // namespace lain::core
