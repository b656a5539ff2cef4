#include "core/scenario_json.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace lain::core {

namespace {

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

}  // namespace

std::string to_json(const ScenarioJobSpec& job) {
  JsonLine line;
  line.str("scenario", job.scenario);
  for (const auto& [flag, value] : job.values) line.str(flag, value);
  for (const std::string& flag : job.switches) line.boolean(flag, true);
  return line.done();
}

ScenarioJobSpec scenario_job_from_fields(
    const ScenarioRegistry& registry, const std::vector<JsonField>& fields,
    const std::vector<std::string>& ignore_keys) {
  ScenarioJobSpec job;
  if (const JsonField* f = find_field(fields, "scenario")) {
    if (f->kind != JsonField::Kind::kString) {
      throw std::invalid_argument("\"scenario\" must be a string");
    }
    job.scenario = f->text;
  }
  if (job.scenario.empty()) {
    throw std::invalid_argument("job is missing the \"scenario\" key");
  }
  const Scenario* scenario = registry.find(job.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario: " + job.scenario);
  }

  // Strict key checking against exactly the flag set the scenario's
  // CLI would accept — an unknown key fails the whole job, the wire
  // twin of the registry CLI's foreign-flag rejection.
  const std::vector<std::string> value_flags =
      registry.value_flags_for(*scenario);
  const std::vector<std::string> switch_flags =
      registry.switch_flags_for(*scenario);
  for (const JsonField& f : fields) {
    if (f.key == "scenario" || contains(ignore_keys, f.key)) continue;
    if (contains(value_flags, f.key)) {
      if (f.kind == JsonField::Kind::kBool) {
        throw std::invalid_argument("flag \"" + f.key +
                                    "\" takes a value, not a boolean");
      }
      job.values.emplace_back(f.key, f.text);
      continue;
    }
    if (contains(switch_flags, f.key)) {
      if (f.kind != JsonField::Kind::kBool) {
        throw std::invalid_argument("switch \"" + f.key +
                                    "\" must be true or false");
      }
      if (f.text == "true") job.switches.push_back(f.key);
      continue;
    }
    throw std::invalid_argument("scenario " + job.scenario +
                                " does not accept key \"" + f.key + "\"");
  }
  return job;
}

ScenarioJobSpec scenario_job_from_json(const ScenarioRegistry& registry,
                                       const std::string& line) {
  return scenario_job_from_fields(registry, parse_flat_json_object(line));
}

std::vector<std::string> scenario_job_argv(const ScenarioJobSpec& job) {
  std::vector<std::string> argv;
  for (const auto& [flag, value] : job.values) {
    argv.push_back("--" + flag);
    argv.push_back(value);
  }
  for (const std::string& flag : job.switches) {
    argv.push_back("--" + flag);
  }
  return argv;
}

ScenarioSpec build_scenario_spec(const ScenarioRegistry& registry,
                                 const ScenarioJobSpec& job,
                                 const std::vector<std::string>& extra_argv) {
  const Scenario* scenario = registry.find(job.scenario);
  if (scenario == nullptr) {
    throw std::invalid_argument("unknown scenario: " + job.scenario);
  }
  std::vector<std::string> argv = extra_argv;
  const std::vector<std::string> own = scenario_job_argv(job);
  argv.insert(argv.end(), own.begin(), own.end());
  std::vector<const char*> cargv;
  cargv.reserve(argv.size());
  for (const std::string& a : argv) cargv.push_back(a.c_str());
  const ArgParser args(static_cast<int>(cargv.size()), cargv.data(),
                       registry.value_flags_for(*scenario),
                       registry.switch_flags_for(*scenario));
  if (!args.positionals().empty()) {
    throw std::invalid_argument("unexpected argument: " +
                                args.positionals().front());
  }
  ScenarioSpec spec = build_scenario_spec(*scenario, args);
  if (scenario->validate) scenario->validate(spec);
  return spec;
}

int run_scenario_file_cli(const ScenarioRegistry& registry,
                          const std::string& path, int extra_argc,
                          const char* const* extra_argv) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "lain_bench: cannot open scenario file: %s\n",
                 path.c_str());
    return 2;
  }
  std::string line;
  int line_no = 0;
  int jobs = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ScenarioJobSpec job;
    try {
      job = scenario_job_from_json(registry, line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "lain_bench: %s:%d: %s\n", path.c_str(), line_no,
                   e.what());
      return 2;
    }
    const Scenario* scenario = registry.find(job.scenario);
    // Shared CLI flags come first, the job's own flags after — the
    // ArgParser keeps the first occurrence, so the command line wins
    // over the file.
    std::vector<std::string> argv;
    for (int i = 0; i < extra_argc; ++i) argv.push_back(extra_argv[i]);
    const std::vector<std::string> own = scenario_job_argv(job);
    argv.insert(argv.end(), own.begin(), own.end());
    std::vector<const char*> cargv;
    cargv.reserve(argv.size());
    for (const std::string& a : argv) cargv.push_back(a.c_str());
    const int rc = run_scenario_cli(registry, *scenario,
                                    static_cast<int>(cargv.size()),
                                    cargv.data());
    if (rc != 0) {
      std::fprintf(stderr, "lain_bench: %s:%d: job failed (exit %d)\n",
                   path.c_str(), line_no, rc);
      return rc;
    }
    ++jobs;
  }
  if (jobs == 0) {
    std::fprintf(stderr,
                 "lain_bench: %s: no jobs (one JSON object per line; "
                 "see README \"Sweep service\")\n",
                 path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace lain::core
