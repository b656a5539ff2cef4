// test_engine_flags.cpp — the engine flags of the four scenarios that
// simulate a network, end to end through the scenario registry: the
// kernel-choice flags (--sim-threads, --partition) must leave every NoC
// table byte-identical, on sparse traffic the kernel steps
// event-driven as on denser per-cycle traffic, and the fault group
// (--fault-*) must reach every one of them.  (The circuit scenarios
// reject these flags; ScenarioRegistry.ScenariosRejectForeignFlags
// pins that.)

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/scenario.hpp"

namespace lain::core {
namespace {

// Runs `name` through the builtin registry the way lain_bench does
// (flags -> spec -> validate -> run) and returns its table as CSV.
std::string run_csv(const std::string& name,
                    std::vector<const char*> base,
                    const std::vector<const char*>& extra = {}) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario& sc = *reg.find(name);
  base.insert(base.end(), extra.begin(), extra.end());
  const ArgParser args(static_cast<int>(base.size()), base.data(),
                       reg.value_flags_for(sc), reg.switch_flags_for(sc));
  const ScenarioSpec spec = build_scenario_spec(sc, args);
  if (sc.validate) sc.validate(spec);
  LainContext ctx;
  const SweepEngine engine = ctx.make_engine(1);
  return sc.run(ctx, spec, engine).table.to_csv();
}

// The cells of one CSV column, header excluded.
std::vector<std::string> csv_column(const std::string& csv,
                                    const std::string& header) {
  std::istringstream in(csv);
  std::string line;
  std::vector<std::string> out;
  int index = -1;
  while (std::getline(in, line)) {
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(cell);
    }
    if (index < 0) {
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (cells[i] == header) index = static_cast<int>(i);
      }
      if (index < 0) return out;
      continue;
    }
    out.push_back(cells.at(static_cast<std::size_t>(index)));
  }
  return out;
}

const std::vector<const char*> kEngineFlags = {"--sim-threads", "2",
                                               "--partition", "blocks2d"};
const std::vector<const char*> kFaultFlags = {"--fault-links", "1",
                                              "--fault-seed", "2"};

const std::vector<const char*> kSweep = {"--rates",    "0.002,0.05",
                                         "--patterns", "uniform",
                                         "--schemes",  "sdpc"};
const std::vector<const char*> kHistogram = {"--rates", "0.002,0.05",
                                             "--patterns", "uniform"};
const std::vector<const char*> kTopology = {"--radices", "4", "--rates",
                                            "0.05", "--patterns", "uniform"};

TEST(EngineFlags, KernelChoiceLeavesTablesByteIdentical) {
  for (const auto& [name, axes] :
       {std::make_pair("injection_sweep", kSweep),
        std::make_pair("idle_histogram", kHistogram),
        std::make_pair("mesh_vs_torus", kTopology)}) {
    const std::string base = run_csv(name, axes);
    ASSERT_FALSE(base.empty()) << name;
    EXPECT_EQ(base, run_csv(name, axes, kEngineFlags)) << name;
  }
}

TEST(EngineFlags, FaultFlagsReachTheSimulation) {
  for (const auto& [name, axes] :
       {std::make_pair("injection_sweep", kSweep),
        std::make_pair("idle_histogram", kHistogram)}) {
    const std::string base = run_csv(name, axes);
    // A zero-count schedule is the exact fault-free path...
    EXPECT_EQ(base, run_csv(name, axes, {"--fault-links", "0"})) << name;
    // ...and a one-link kill changes the run.
    EXPECT_NE(base, run_csv(name, axes, kFaultFlags)) << name;
  }
}

TEST(EngineFlags, FaultFlagsKeepTheTorusVcDiagnostic) {
  try {
    run_csv("mesh_vs_torus", kTopology, kFaultFlags);
    FAIL() << "expected the torus to reject a fault schedule at 2 VCs";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("torus needs >= 3 VCs"),
              std::string::npos)
        << e.what();
  }
}

TEST(EngineFlags, FaultFlagsShiftMeshScalingLatency) {
  const std::vector<const char*> axes = {"--radices", "8", "--sim-threads",
                                         "1", "--partition", "rows"};
  const std::vector<std::string> base =
      csv_column(run_csv("mesh_scaling", axes), "lat");
  const std::vector<std::string> faulted =
      csv_column(run_csv("mesh_scaling", axes, kFaultFlags), "lat");
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(faulted.size(), 1u);
  EXPECT_NE(base[0], faulted[0]);
}

}  // namespace
}  // namespace lain::core
