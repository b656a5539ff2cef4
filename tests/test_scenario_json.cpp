// test_scenario_json.cpp — the scenario JSON wire format: strict
// parsing, byte round-trips, unknown-key rejection mirroring the CLI's
// foreign-flag behavior, spec parity with the flag path, and the
// `--scenario-file` batch driver producing byte-identical output to
// the equivalent flag invocation.

#include "core/scenario_json.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace lain::core {
namespace {

const ScenarioRegistry& reg() { return ScenarioRegistry::builtin(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* tag) {
  return testing::TempDir() + "scenario_json_" + tag + "_" +
         std::to_string(::getpid());
}

TEST(ScenarioJson, ParsesFlatObject) {
  const auto fields = parse_flat_json_object(
      R"({"scenario":"injection_sweep","rates":"0.05","no-gating":true,)"
      R"("seed":7})");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0].key, "scenario");
  EXPECT_EQ(fields[0].kind, JsonField::Kind::kString);
  EXPECT_EQ(fields[0].text, "injection_sweep");
  EXPECT_EQ(fields[2].kind, JsonField::Kind::kBool);
  EXPECT_EQ(fields[2].text, "true");
  // Numbers keep their raw spelling.
  EXPECT_EQ(fields[3].kind, JsonField::Kind::kNumber);
  EXPECT_EQ(fields[3].text, "7");
}

TEST(ScenarioJson, RejectsMalformedJson) {
  EXPECT_THROW(parse_flat_json_object("not json"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\":"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\":null}"),
               std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\":{}}"), std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\":[1]}"),
               std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\":\"b\"} trailing"),
               std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\" \"b\"}"),
               std::invalid_argument);
  EXPECT_THROW(parse_flat_json_object("{\"a\":1,\"a\":2}"),
               std::invalid_argument);
}

TEST(ScenarioJson, RoundTripsBytes) {
  const std::string line =
      R"({"scenario":"injection_sweep","rates":"0.05,0.1",)"
      R"("schemes":"sdpc","metrics-window":"500","no-gating":true})";
  const ScenarioJobSpec job = scenario_job_from_json(reg(), line);
  EXPECT_EQ(to_json(job), line);
  // And the re-parse of the encoding is the same job again.
  const ScenarioJobSpec again = scenario_job_from_json(reg(), to_json(job));
  EXPECT_EQ(to_json(again), line);
}

TEST(ScenarioJson, BareNumbersNormalizeToStrings) {
  const ScenarioJobSpec job = scenario_job_from_json(
      reg(), R"({"scenario":"injection_sweep","rates":0.05,"seed":7})");
  EXPECT_EQ(to_json(job),
            R"({"scenario":"injection_sweep","rates":"0.05","seed":"7"})");
}

TEST(ScenarioJson, RejectsUnknownScenarioAndKeys) {
  // Unknown scenario.
  EXPECT_THROW(scenario_job_from_json(reg(), R"({"scenario":"frobnicate"})"),
               std::invalid_argument);
  // Missing scenario key.
  EXPECT_THROW(scenario_job_from_json(reg(), R"({"rates":"0.05"})"),
               std::invalid_argument);
  // A flag the scenario does not accept — mirrors the CLI's exit-2
  // foreign-flag rejection.
  EXPECT_THROW(
      scenario_job_from_json(
          reg(), R"({"scenario":"corner_sweep","rates":"0.05"})"),
      std::invalid_argument);
  try {
    scenario_job_from_json(reg(),
                           R"({"scenario":"corner_sweep","rates":"0.05"})");
    FAIL() << "unknown key was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rates"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("corner_sweep"),
              std::string::npos);
  }

  // The fault and telemetry keys, as job fields: the circuit scenarios
  // reject all twelve, and mesh_scaling the six telemetry keys.
  const std::vector<std::string> fault = {
      R"("fault-links":"1")", R"("fault-routers":"1")",
      R"("fault-at":"10")",   R"("fault-seed":"2")",
      R"("fault-repair":"5")", R"("allow-partition":true)"};
  const std::vector<std::string> telemetry = {
      R"("metrics-window":"100")", R"("metrics-out":"-")",
      R"("trace-flits":"8")",      R"("progress":true)",
      R"("abort-on-saturation":"2")", R"("abort-on-disconnect":true)"};
  auto job = [](const char* scenario, const std::string& field) {
    return std::string(R"({"scenario":")") + scenario + R"(",)" + field + "}";
  };
  for (const char* name : {"table1", "corner_sweep", "node_scaling",
                           "static_probability", "breakeven",
                           "segmentation"}) {
    for (const auto* keys : {&fault, &telemetry}) {
      for (const std::string& field : *keys) {
        EXPECT_THROW(scenario_job_from_json(reg(), job(name, field)),
                     std::invalid_argument)
            << name << " " << field;
      }
    }
  }
  for (const std::string& field : telemetry) {
    EXPECT_THROW(scenario_job_from_json(reg(), job("mesh_scaling", field)),
                 std::invalid_argument)
        << field;
  }
  for (const std::string& field : fault) {
    EXPECT_NO_THROW(scenario_job_from_json(reg(), job("mesh_scaling", field)))
        << field;
  }
  // mesh_scaling accepts the rates key but times a single rate.
  const ScenarioJobSpec two_rates = scenario_job_from_json(
      reg(), job("mesh_scaling", R"("rates":"0.05,0.3")"));
  EXPECT_THROW(build_scenario_spec(reg(), two_rates, {}),
               std::invalid_argument);
}

TEST(ScenarioJson, RejectsMistypedValues) {
  // A switch flag must be boolean...
  EXPECT_THROW(
      scenario_job_from_json(
          reg(), R"({"scenario":"injection_sweep","no-gating":"yes"})"),
      std::invalid_argument);
  // ...and a value flag must not be.
  EXPECT_THROW(
      scenario_job_from_json(
          reg(), R"({"scenario":"injection_sweep","rates":true})"),
      std::invalid_argument);
  // scenario must be a string.
  EXPECT_THROW(scenario_job_from_json(reg(), R"({"scenario":7})"),
               std::invalid_argument);
  // Duplicate scenario keys are ambiguous...
  EXPECT_THROW(
      scenario_job_from_json(
          reg(),
          R"({"scenario":"corner_sweep","scenario":"corner_sweep"})"),
      std::invalid_argument);
  // ...and so are duplicate flag keys: the parser would run only the
  // first value.
  EXPECT_THROW(
      scenario_job_from_json(
          reg(), R"({"scenario":"corner_sweep","temps":"25","temps":"110",)"
                 R"("schemes":"sc"})"),
      std::invalid_argument);
}

TEST(ScenarioJson, FalseSwitchMeansAbsent) {
  const ScenarioJobSpec job = scenario_job_from_json(
      reg(), R"({"scenario":"injection_sweep","no-gating":false})");
  EXPECT_TRUE(job.switches.empty());
  EXPECT_EQ(to_json(job), R"({"scenario":"injection_sweep"})");
}

// The wire format converts to a spec through the very same ArgParser +
// build_scenario_spec path as the CLI, so the two cannot drift.
TEST(ScenarioJson, SpecMatchesFlagPath) {
  const ScenarioJobSpec job = scenario_job_from_json(
      reg(),
      R"({"scenario":"injection_sweep","rates":"0.05,0.1",)"
      R"("schemes":"sc,sdpc","metrics-window":"250",)"
      R"("abort-on-saturation":"2.5","no-gating":true})");
  const ScenarioSpec from_json = build_scenario_spec(reg(), job, {});

  const Scenario* sc = reg().find("injection_sweep");
  ASSERT_NE(sc, nullptr);
  const char* argv[] = {"--rates",          "0.05,0.1",
                        "--schemes",        "sc,sdpc",
                        "--metrics-window", "250",
                        "--abort-on-saturation", "2.5",
                        "--no-gating"};
  const ArgParser args(9, argv, reg().value_flags_for(*sc),
                       reg().switch_flags_for(*sc));
  const ScenarioSpec from_flags = build_scenario_spec(*sc, args);

  EXPECT_EQ(from_json.rates, from_flags.rates);
  EXPECT_EQ(from_json.schemes, from_flags.schemes);
  EXPECT_EQ(from_json.patterns, from_flags.patterns);  // scenario default
  EXPECT_EQ(from_json.run.telemetry.metrics_window,
            from_flags.run.telemetry.metrics_window);
  EXPECT_EQ(from_json.run.telemetry.abort_latency_mult,
            from_flags.run.telemetry.abort_latency_mult);
  EXPECT_EQ(from_json.gating, from_flags.gating);
  EXPECT_EQ(from_json.seeds, from_flags.seeds);
}

TEST(ScenarioJson, ExtraArgvOverridesJobFlags) {
  const ScenarioJobSpec job = scenario_job_from_json(
      reg(), R"({"scenario":"injection_sweep","rates":"0.3"})");
  const ScenarioSpec spec =
      build_scenario_spec(reg(), job, {"--rates", "0.05"});
  ASSERT_EQ(spec.rates.size(), 1u);
  EXPECT_EQ(spec.rates[0], 0.05);
}

TEST(ScenarioJson, AbortGuardRequiresWindow) {
  const ScenarioJobSpec job = scenario_job_from_json(
      reg(),
      R"({"scenario":"injection_sweep","abort-on-saturation":"2.0"})");
  EXPECT_THROW(build_scenario_spec(reg(), job, {}), std::invalid_argument);
}

// The golden parity check behind `lain_bench --scenario-file`: the
// same experiment through flags and through a job file must write
// byte-identical tables.
TEST(ScenarioFile, OutputMatchesFlagInvocationBytes) {
  const std::string out_flags = temp_path("flags.csv");
  const std::string out_file = temp_path("file.csv");
  const std::string jobs = temp_path("jobs.jsonl");
  {
    std::ofstream f(jobs);
    f << "# comment and blank lines are skipped\n\n";
    f << R"({"scenario":"corner_sweep","temps":"25,85",)"
      << R"("schemes":"sc,sdpc"})" << "\n";
  }

  const Scenario* sc = reg().find("corner_sweep");
  ASSERT_NE(sc, nullptr);
  const char* flag_argv[] = {"--temps", "25,85", "--schemes", "sc,sdpc",
                             "--csv",   "--out", out_flags.c_str()};
  ASSERT_EQ(run_scenario_cli(reg(), *sc, 7, flag_argv), 0);

  const char* extra[] = {"--csv", "--out", out_file.c_str()};
  ASSERT_EQ(run_scenario_file_cli(reg(), jobs, 3, extra), 0);

  const std::string a = slurp(out_flags);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(out_file));

  std::remove(out_flags.c_str());
  std::remove(out_file.c_str());
  std::remove(jobs.c_str());
}

TEST(ScenarioFile, MalformedLineFailsWithExitTwo) {
  const std::string jobs = temp_path("bad.jsonl");
  {
    std::ofstream f(jobs);
    f << "{\"scenario\":\"corner_sweep\"\n";  // unterminated object
  }
  EXPECT_EQ(run_scenario_file_cli(reg(), jobs, 0, nullptr), 2);
  std::remove(jobs.c_str());
}

TEST(ScenarioFile, MissingFileAndEmptyFileFail) {
  EXPECT_EQ(run_scenario_file_cli(reg(), temp_path("nonexistent"), 0,
                                  nullptr),
            2);
  const std::string jobs = temp_path("empty.jsonl");
  {
    std::ofstream f(jobs);
    f << "# only a comment\n";
  }
  EXPECT_EQ(run_scenario_file_cli(reg(), jobs, 0, nullptr), 2);
  std::remove(jobs.c_str());
}

}  // namespace
}  // namespace lain::core
