// test_scenario.cpp — the declarative scenario layer: registry
// lookup, registry-derived usage, per-scenario flag acceptance, spec
// building with layered defaults, and end-to-end runs through the
// registry.

#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/context.hpp"
#include "core/scenario_json.hpp"
#include "noc/rng.hpp"

namespace lain::core {
namespace {

ArgParser parse(const Scenario& sc, std::vector<const char*> argv) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  return ArgParser(static_cast<int>(argv.size()), argv.data(),
                   reg.value_flags_for(sc), reg.switch_flags_for(sc));
}

// lain_bench's exit code for `argv`, its usage text on stderr dropped.
int cli_exit_code(const Scenario& sc, const std::vector<const char*>& argv) {
  testing::internal::CaptureStderr();
  const int rc = run_scenario_cli(ScenarioRegistry::builtin(), sc,
                                  static_cast<int>(argv.size()), argv.data());
  testing::internal::GetCapturedStderr();
  return rc;
}

// The fault and the telemetry group: a valid argv led by each flag.
const std::vector<std::vector<const char*>> kFaultFlags = {
    {"--fault-links", "1"}, {"--fault-routers", "1"}, {"--fault-at", "10"},
    {"--fault-seed", "2"},  {"--fault-repair", "5"},  {"--allow-partition"}};
const std::vector<std::vector<const char*>> kTelemetryFlags = {
    {"--metrics-window", "100"},
    {"--metrics-out", "-"},
    {"--trace-flits", "8"},
    {"--progress"},
    {"--abort-on-saturation", "2", "--metrics-window", "100"},
    {"--abort-on-disconnect", "--metrics-window", "100"}};

TEST(ScenarioRegistry, BuiltinCoversEverySubcommand) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const char* expected[] = {
      "injection_sweep", "idle_histogram", "corner_sweep",
      "node_scaling",    "mesh_vs_torus",  "mesh_scaling",
      "static_probability", "breakeven",   "segmentation", "table1"};
  ASSERT_EQ(reg.scenarios().size(), std::size(expected));
  for (const char* name : expected) {
    const Scenario* sc = reg.find(name);
    ASSERT_NE(sc, nullptr) << name;
    EXPECT_TRUE(sc->run != nullptr) << name;
    EXPECT_FALSE(sc->summary.empty()) << name;
  }
  EXPECT_EQ(reg.find("frobnicate"), nullptr);
}

TEST(ScenarioRegistry, UsageIsRegistryDerived) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const std::string usage = reg.usage();
  EXPECT_NE(usage.find("usage: lain_bench <subcommand>"), std::string::npos);
  for (const Scenario& sc : reg.scenarios()) {
    EXPECT_NE(usage.find(sc.name), std::string::npos) << sc.name;
    EXPECT_NE(reg.list().find(sc.summary), std::string::npos) << sc.name;
  }
}

TEST(ScenarioRegistry, PerScenarioUsageListsOnlyAcceptedFlags) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const std::string breakeven = reg.usage_for(*reg.find("breakeven"));
  EXPECT_NE(breakeven.find("--threads"), std::string::npos);
  EXPECT_EQ(breakeven.find("--rates"), std::string::npos);

  const std::string injection = reg.usage_for(*reg.find("injection_sweep"));
  EXPECT_NE(injection.find("--rates"), std::string::npos);
  EXPECT_NE(injection.find("--no-gating"), std::string::npos);
  EXPECT_NE(injection.find("--replicates"), std::string::npos);
}

TEST(ScenarioRegistry, ScenariosRejectForeignFlags) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& breakeven = *reg.find("breakeven");
  // --rates belongs to sweep scenarios, not breakeven: the parser
  // built from the scenario's flag set must throw, which is what
  // makes lain_bench exit nonzero instead of silently ignoring it.
  EXPECT_THROW(parse(breakeven, {"--rates", "0.5"}), std::invalid_argument);
  const Scenario& table1 = *reg.find("table1");
  EXPECT_THROW(parse(table1, {"--temps", "25"}), std::invalid_argument);

  // The circuit scenarios simulate no network, so they reject all
  // twelve fault and telemetry flags, and mesh_scaling, which attaches
  // no telemetry, the six telemetry flags.
  std::vector<std::pair<const char*, std::vector<const char*>>> foreign;
  for (const char* name : {"table1", "corner_sweep", "node_scaling",
                           "static_probability", "breakeven",
                           "segmentation"}) {
    for (const auto& argv : kFaultFlags) foreign.emplace_back(name, argv);
    for (const auto& argv : kTelemetryFlags) foreign.emplace_back(name, argv);
  }
  for (const auto& argv : kTelemetryFlags) {
    foreign.emplace_back("mesh_scaling", argv);
  }
  for (const auto& [name, argv] : foreign) {
    const Scenario& sc = *reg.find(name);
    EXPECT_THROW(parse(sc, argv), std::invalid_argument)
        << name << " " << argv.front();
    EXPECT_EQ(cli_exit_code(sc, argv), 2) << name << " " << argv.front();
  }
  // The NoC scenarios accept the rest.
  for (const char* name : {"injection_sweep", "idle_histogram",
                           "mesh_vs_torus", "mesh_scaling"}) {
    for (const auto& argv : kFaultFlags) {
      EXPECT_NO_THROW(parse(*reg.find(name), argv)) << name << argv.front();
    }
  }
  for (const char* name :
       {"injection_sweep", "idle_histogram", "mesh_vs_torus"}) {
    for (const auto& argv : kTelemetryFlags) {
      EXPECT_NO_THROW(parse(*reg.find(name), argv)) << name << argv.front();
    }
  }

  // mesh_scaling times one rate and one pattern: a second value on
  // either axis is rejected, as a second scheme is by mesh_vs_torus.
  const Scenario& scaling = *reg.find("mesh_scaling");
  for (const std::vector<const char*>& argv :
       {std::vector<const char*>{"--rates", "0.05,0.3"},
        std::vector<const char*>{"--patterns", "uniform,tornado"}}) {
    EXPECT_THROW(scaling.validate(build_scenario_spec(scaling,
                                                      parse(scaling, argv))),
                 std::invalid_argument)
        << argv.back();
    EXPECT_EQ(cli_exit_code(scaling, argv), 2) << argv.back();
  }
}

TEST(ScenarioSpec, BuildAppliesLayeredDefaults) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("injection_sweep");
  const ScenarioSpec spec = build_scenario_spec(sc, parse(sc, {}));

  // Scenario default overrides the global "uniform".
  const std::vector<noc::TrafficPattern> patterns{
      noc::TrafficPattern::kUniform, noc::TrafficPattern::kTranspose};
  EXPECT_EQ(spec.patterns, patterns);
  // Global defaults.
  const std::vector<double> rates{0.05, 0.15, 0.30};
  EXPECT_EQ(spec.rates, rates);
  EXPECT_EQ(spec.schemes.size(), 5u);  // "all"
  EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{1});
  EXPECT_TRUE(spec.gating);
  EXPECT_EQ(spec.threads, 1);
  EXPECT_EQ(spec.run.sim_threads, 1);
}

TEST(ScenarioSpec, BuildParsesAxisFlags) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("injection_sweep");
  const ScenarioSpec spec = build_scenario_spec(
      sc, parse(sc, {"--rates", "0.1,0.2", "--schemes", "sc", "--seed", "9",
                     "--replicates", "3", "--sim-threads", "2",
                     "--no-gating"}));

  const std::vector<double> rates{0.1, 0.2};
  EXPECT_EQ(spec.rates, rates);
  EXPECT_EQ(spec.schemes, std::vector<xbar::Scheme>{xbar::Scheme::kSC});
  EXPECT_EQ(spec.run.sim_threads, 2);
  EXPECT_FALSE(spec.gating);
  ASSERT_EQ(spec.seeds.size(), 3u);
  for (std::size_t k = 0; k < spec.seeds.size(); ++k) {
    EXPECT_EQ(spec.seeds[k],
              noc::mix_seed(9, static_cast<std::uint64_t>(k)));
  }
}

TEST(ScenarioSpec, MeshScalingTakesSimThreadList) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("mesh_scaling");
  ASSERT_TRUE(sc.sim_threads_as_list);
  const ScenarioSpec spec =
      build_scenario_spec(sc, parse(sc, {"--sim-threads", "1,2"}));
  const std::vector<int> list{1, 2};
  EXPECT_EQ(spec.sim_thread_list, list);
  const std::vector<int> radices{8, 16};  // scenario default
  EXPECT_EQ(spec.radices, radices);

  // Elsewhere --sim-threads is a single integer, as --replicates is
  // everywhere: trailing characters are rejected, not dropped.
  const Scenario& sweep = *reg.find("injection_sweep");
  for (const std::vector<const char*>& argv :
       {std::vector<const char*>{"--sim-threads", "2,4"},
        std::vector<const char*>{"--replicates", "3x"},
        std::vector<const char*>{"--replicates", "2,3"}}) {
    EXPECT_THROW(build_scenario_spec(sweep, parse(sweep, argv)),
                 std::invalid_argument)
        << argv.front() << " " << argv.back();
  }
}

// --seed and --fault-seed are each one whole unsigned integer: a
// trailing character, a sign or a value past 2^64 - 1 is an error (a
// bare std::stoull ran "--seed 7x" as 7 and wrapped "-1"), and
// lain_bench exits 2 on it.
TEST(ScenarioSpec, SeedFlagsParseAsWholeUnsignedIntegers) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("idle_histogram");
  EXPECT_EQ(build_scenario_spec(sc, parse(sc, {"--seed", "7"})).seed, 7u);
  EXPECT_EQ(build_scenario_spec(
                sc, parse(sc, {"--seed", "18446744073709551615"}))
                .seed,
            18446744073709551615ull);
  EXPECT_EQ(build_scenario_spec(sc, parse(sc, {"--fault-seed", "12"}))
                .run.fault.seed,
            12u);
  for (const char* flag : {"--seed", "--fault-seed"}) {
    for (const char* bad : {"7x", "-1", "+7", " 7", "1.5", "0x10", "",
                            "18446744073709551616"}) {
      const std::vector<const char*> argv{flag, bad};
      EXPECT_THROW(build_scenario_spec(sc, parse(sc, argv)),
                   std::invalid_argument)
          << flag << " '" << bad << "'";
      EXPECT_EQ(cli_exit_code(sc, argv), 2) << flag << " '" << bad << "'";
    }
  }
}

// Count flags below their least legal value are errors, not runs:
// --replicates -3 (or 0) ran one seed, --threads -4 ran on every core,
// --sim-threads -2 auto-sharded and mesh_scaling printed a "threads -1"
// row.  lain_bench exits 2, and a served or --scenario-file job fails
// in build_scenario_spec too.
TEST(ScenarioSpec, CountFlagsRejectValuesBelowTheirLeast) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const std::vector<std::vector<const char*>> cases = {
      {"idle_histogram", "--replicates", "-3"},
      {"idle_histogram", "--replicates", "0"},
      {"breakeven", "--threads", "-4"},
      {"idle_histogram", "--sim-threads", "-2"},
      {"mesh_scaling", "--sim-threads", "-1,2"}};
  for (const std::vector<const char*>& c : cases) {
    const Scenario& sc = *reg.find(c[0]);
    const std::vector<const char*> argv(c.begin() + 1, c.end());
    const std::string what = std::string(c[0]) + " " + c[1] + " " + c[2];
    EXPECT_THROW(build_scenario_spec(sc, parse(sc, argv)),
                 std::invalid_argument)
        << what;
    EXPECT_EQ(cli_exit_code(sc, argv), 2) << what;
    const ScenarioJobSpec job = scenario_job_from_json(
        reg, std::string(R"({"scenario":")") + c[0] + R"(",")" + (c[1] + 2) +
                 R"(":")" + c[2] + R"("})");
    EXPECT_THROW(build_scenario_spec(reg, job, {}), std::invalid_argument)
        << what;
  }
  // The least legal values still build: one replicate, and 0 threads
  // (every core) and 0 shards (auto).
  const Scenario& hist = *reg.find("idle_histogram");
  EXPECT_NO_THROW(build_scenario_spec(
      hist, parse(hist, {"--replicates", "1", "--threads", "0",
                         "--sim-threads", "0"})));
}

// An axis value its run would reject fails in build_scenario_spec,
// before the banner: lain_bench exits 2 with usage and an empty
// stdout, and a served or --scenario-file job fails there too.  The
// edge of the legal range still builds.
void expect_axis_value_rejected(const char* scenario, const char* flag,
                                const char* bad, const char* edge) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find(scenario);
  const std::string dashed = std::string("--") + flag;
  const std::vector<const char*> argv = {dashed.c_str(), bad};
  EXPECT_THROW(build_scenario_spec(sc, parse(sc, argv)),
               std::invalid_argument);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int rc = run_scenario_cli(reg, sc, static_cast<int>(argv.size()),
                                  argv.data());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find(reg.usage_for(sc)), std::string::npos) << err;
  const ScenarioJobSpec job = scenario_job_from_json(
      reg, std::string(R"({"scenario":")") + scenario + R"(",")" + flag +
               R"(":")" + bad + R"("})");
  EXPECT_THROW(build_scenario_spec(reg, job, {}), std::invalid_argument);
  EXPECT_NO_THROW(build_scenario_spec(sc, parse(sc, {dashed.c_str(), edge})));
}

TEST(ScenarioSpec, RadixBelowTwoFailsBeforeTheRun) {
  expect_axis_value_rejected("mesh_scaling", "radices", "1", "2");
}

TEST(ScenarioSpec, NegativeRateFailsBeforeTheRun) {
  expect_axis_value_rejected("idle_histogram", "rates", "-0.1", "0");
}

TEST(ScenarioSpec, ZeroBurstDutyFailsBeforeTheRun) {
  expect_axis_value_rejected("injection_sweep", "burst-duties", "0", "1");
}

TEST(ScenarioSpec, TemperatureBelowAbsoluteZeroFailsBeforeTheRun) {
  expect_axis_value_rejected("corner_sweep", "temps", "-300", "-272");
}

TEST(ScenarioSpec, StaticProbabilityAboveOneFailsBeforeTheRun) {
  expect_axis_value_rejected("static_probability", "probabilities", "1.5",
                             "1");
}

TEST(ScenarioSpec, PartitionFlagParsesAndDefaultsToAuto) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sweep = *reg.find("injection_sweep");
  // Global default.
  EXPECT_EQ(build_scenario_spec(sweep, parse(sweep, {})).run.partition,
            noc::PartitionStrategy::kAuto);
  // Explicit single value.
  const ScenarioSpec spec = build_scenario_spec(
      sweep, parse(sweep, {"--partition", "blocks2d", "--pin-threads"}));
  EXPECT_EQ(spec.run.partition, noc::PartitionStrategy::kBlocks2D);
  EXPECT_TRUE(spec.run.pin_threads);
  // Lists are rejected where --partition is a single strategy...
  EXPECT_THROW(build_scenario_spec(
                   sweep, parse(sweep, {"--partition", "rows,blocks2d"})),
               std::invalid_argument);
  EXPECT_THROW(
      build_scenario_spec(sweep, parse(sweep, {"--partition", "diagonal"})),
      std::invalid_argument);

  // ...but mesh_scaling takes them as an axis (default rows,blocks2d).
  const Scenario& scaling = *reg.find("mesh_scaling");
  ASSERT_TRUE(scaling.partition_as_list);
  const std::vector<noc::PartitionStrategy> both{
      noc::PartitionStrategy::kRowBands, noc::PartitionStrategy::kBlocks2D};
  EXPECT_EQ(build_scenario_spec(scaling, parse(scaling, {})).partition_list,
            both);
  const std::vector<noc::PartitionStrategy> one{
      noc::PartitionStrategy::kBlocks2D};
  EXPECT_EQ(build_scenario_spec(
                scaling, parse(scaling, {"--partition", "blocks2d"}))
                .partition_list,
            one);
}

TEST(ScenarioSpec, MeshVsTorusValidatesSingleScheme) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("mesh_vs_torus");
  ASSERT_TRUE(sc.validate != nullptr);
  const ScenarioSpec ok =
      build_scenario_spec(sc, parse(sc, {"--schemes", "dpc"}));
  EXPECT_NO_THROW(sc.validate(ok));
  const ScenarioSpec bad =
      build_scenario_spec(sc, parse(sc, {"--schemes", "sc,sdpc"}));
  EXPECT_THROW(sc.validate(bad), std::invalid_argument);
}

TEST(ScenarioSpec, RecommendedBudgetCoversEachRequestedLevel) {
  ScenarioSpec spec;
  spec.threads = 8;
  EXPECT_GE(recommended_thread_budget(spec), 8);
  spec.threads = 1;
  spec.run.sim_threads = 4;
  EXPECT_GE(recommended_thread_budget(spec), 4);
  spec.run.sim_threads = 0;  // auto: the kernel sizes itself
  EXPECT_GE(recommended_thread_budget(spec), 1);
}

TEST(ScenarioRegistry, BreakevenRunsEndToEnd) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("breakeven");
  LainContext ctx;
  const SweepEngine engine = ctx.make_engine(1);
  const ScenarioRun run =
      sc.run(ctx, build_scenario_spec(sc, parse(sc, {})), engine);
  EXPECT_EQ(run.table.num_rows(), 5u);  // one per scheme
  ASSERT_TRUE(run.extras != nullptr);
  EXPECT_NE(run.extras().find("Timeout-policy check"), std::string::npos);
}

TEST(ScenarioRegistry, Table1RendersAsCsvAndJson) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find("table1");
  LainContext ctx;
  const SweepEngine engine = ctx.make_engine(1);
  const ScenarioRun run =
      sc.run(ctx, build_scenario_spec(sc, parse(sc, {})), engine);

  // Header plus one line per metric; savings and penalties are
  // fractions, not percent strings.
  const std::string csv = run.table.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "Scheme,SC,DFC,DPC,SDFC,SDPC");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 8);
  EXPECT_EQ(csv.find('%'), std::string::npos);
  const std::string json = run.table.to_json();
  EXPECT_NE(json.find("{\"Scheme\": \"Delay Penalty\", \"SC\": \"-\", "
                      "\"DFC\": \"No\""),
            std::string::npos)
      << json;

  // The CLI emits exactly these tables for --csv and --json.
  for (const std::string flag : {"--csv", "--json"}) {
    testing::internal::CaptureStdout();
    const int rc = cli_exit_code(sc, {flag.c_str()});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0) << flag;
    EXPECT_EQ(out, flag == "--csv" ? csv : json) << flag;
  }
}

}  // namespace
}  // namespace lain::core
