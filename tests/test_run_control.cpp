// test_run_control.cpp — the run-lifecycle controls: cooperative
// cancel and the saturation guard (SimKernel::set_window_control
// through LainContext).  The load-bearing properties:
//
//   * a saturating run aborts at a window boundary with
//     aborted_saturated set (and the summary record says so),
//   * a guard that never fires leaves the run bit-identical — every
//     window record and every derived column, not just "close",
//   * cancel stops the run at the next window boundary (or before the
//     first cycle when already set), leaving a well-formed summary.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"

namespace lain::core {
namespace {

NocRunSpec base_spec(double rate) {
  NocRunSpec spec;
  spec.scheme = xbar::Scheme::kSDPC;
  spec.sim.injection_rate = rate;
  spec.sim.warmup_cycles = 200;
  spec.sim.measure_cycles = 4000;
  spec.telemetry.metrics_window = 250;
  return spec;
}

// Strips the volatile run id so streams from different processes /
// run counters compare equal.
std::string without_run_id(const std::string& json) {
  const std::size_t key = json.find("\"run\":\"");
  if (key == std::string::npos) return json;
  const std::size_t end = json.find('"', key + 8);
  return json.substr(0, key) + json.substr(end + 2);
}

TEST(SaturationGuard, AbortsASaturatingRun) {
  LainContext ctx;
  telemetry::MemorySink sink;
  NocRunSpec spec = base_spec(0.9);  // far past the 5x5 mesh's knee
  spec.telemetry.sink = &sink;
  spec.telemetry.abort_latency_mult = 1.5;
  const NocRunResult r = ctx.run_noc(spec);

  EXPECT_TRUE(r.aborted_saturated);
  EXPECT_FALSE(r.canceled);
  ASSERT_EQ(sink.summaries.size(), 1u);
  EXPECT_TRUE(sink.summaries[0].aborted_saturated);
  // The run stopped at a window boundary well before the configured
  // measurement ended.
  ASSERT_FALSE(sink.windows.empty());
  EXPECT_LT(sink.windows.back().window.end,
            spec.sim.warmup_cycles + spec.sim.measure_cycles);
  // The summary is well-formed JSON and says aborted_saturated.
  EXPECT_EQ(json_field(telemetry::to_json(sink.summaries[0]),
                       "aborted_saturated"),
            "true");
}

TEST(SaturationGuard, NonFiringGuardIsBitIdentical) {
  LainContext plain_ctx;
  telemetry::MemorySink plain_sink;
  NocRunSpec plain = base_spec(0.05);
  plain.telemetry.sink = &plain_sink;
  const NocRunResult r0 = plain_ctx.run_noc(plain);

  LainContext guarded_ctx;
  telemetry::MemorySink guarded_sink;
  NocRunSpec guarded = base_spec(0.05);
  guarded.telemetry.sink = &guarded_sink;
  guarded.telemetry.abort_latency_mult = 100.0;  // can never fire
  const NocRunResult r1 = guarded_ctx.run_noc(guarded);

  EXPECT_FALSE(r1.aborted_saturated);
  EXPECT_EQ(r0.avg_packet_latency_cycles, r1.avg_packet_latency_cycles);
  EXPECT_EQ(r0.throughput_flits_node_cycle, r1.throughput_flits_node_cycle);
  EXPECT_EQ(r0.network_power_w, r1.network_power_w);
  EXPECT_EQ(r0.crossbar_power_w, r1.crossbar_power_w);
  EXPECT_EQ(r0.standby_fraction, r1.standby_fraction);
  EXPECT_EQ(r0.realized_saving_w, r1.realized_saving_w);

  ASSERT_EQ(plain_sink.windows.size(), guarded_sink.windows.size());
  for (std::size_t i = 0; i < plain_sink.windows.size(); ++i) {
    EXPECT_EQ(without_run_id(telemetry::to_json(plain_sink.windows[i])),
              without_run_id(telemetry::to_json(guarded_sink.windows[i])))
        << "window " << i;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_out(const char* tag) {
  return testing::TempDir() + "run_control_" + tag + "_" +
         std::to_string(::getpid());
}

// The CLI surface of the guard: a saturating sweep cell reports
// [abort] (not [sat] — the guard fired first), and on a load the
// guard never touches, the emitted table is byte-identical with the
// flag on.
TEST(SaturationGuard, CliReportsAbortAndLeavesQuietRunsByteIdentical) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario* sc = reg.find("injection_sweep");
  ASSERT_NE(sc, nullptr);

  const std::string aborted = temp_out("abort.csv");
  const char* abort_argv[] = {
      "--rates",          "0.9",  "--patterns",          "uniform",
      "--schemes",        "sdpc", "--metrics-window",    "250",
      "--abort-on-saturation", "1.5", "--csv", "--out", aborted.c_str()};
  ASSERT_EQ(run_scenario_cli(reg, *sc, 13, abort_argv), 0);
  EXPECT_NE(slurp(aborted).find("[abort]"), std::string::npos);

  const std::string plain = temp_out("plain.csv");
  const char* plain_argv[] = {
      "--rates",   "0.05", "--patterns", "uniform",      "--schemes",
      "sdpc",      "--metrics-window", "250", "--csv", "--out",
      plain.c_str()};
  ASSERT_EQ(run_scenario_cli(reg, *sc, 11, plain_argv), 0);

  const std::string guarded = temp_out("guarded.csv");
  const char* guarded_argv[] = {
      "--rates",          "0.05", "--patterns",          "uniform",
      "--schemes",        "sdpc", "--metrics-window",    "250",
      "--abort-on-saturation", "100", "--csv", "--out", guarded.c_str()};
  ASSERT_EQ(run_scenario_cli(reg, *sc, 13, guarded_argv), 0);

  const std::string a = slurp(plain);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(guarded));
  EXPECT_EQ(a.find("[abort]"), std::string::npos);

  std::remove(aborted.c_str());
  std::remove(plain.c_str());
  std::remove(guarded.c_str());
}

// The CLI rejects a guard without a window to act on.
TEST(SaturationGuard, CliRequiresAMetricsWindow) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const Scenario* sc = reg.find("injection_sweep");
  ASSERT_NE(sc, nullptr);
  const char* argv[] = {"--rates", "0.05", "--abort-on-saturation", "2"};
  EXPECT_EQ(run_scenario_cli(reg, *sc, 4, argv), 2);
}

TEST(Cancel, PreSetCancelSkipsTheRun) {
  LainContext ctx;
  std::atomic<bool> cancel{true};
  telemetry::MemorySink sink;
  NocRunSpec spec = base_spec(0.05);
  spec.telemetry.sink = &sink;
  spec.telemetry.cancel = &cancel;
  const NocRunResult r = ctx.run_noc(spec);

  EXPECT_TRUE(r.canceled);
  EXPECT_FALSE(r.aborted_saturated);
  ASSERT_EQ(sink.summaries.size(), 1u);
  EXPECT_TRUE(sink.summaries[0].canceled);
  EXPECT_EQ(sink.summaries[0].cycles, 0);
  EXPECT_TRUE(sink.windows.empty());
}

// Observes windows and trips the cancel flag after the first one —
// deterministic mid-run cancellation without any thread timing.
class CancelAfterFirstWindow final : public telemetry::MetricsSink {
 public:
  explicit CancelAfterFirstWindow(std::atomic<bool>* flag) : flag_(flag) {}
  void on_window(const telemetry::WindowRecord& w) override {
    windows.push_back(w);
    flag_->store(true, std::memory_order_relaxed);
  }
  void on_summary(const telemetry::RunSummary& s) override {
    summaries.push_back(s);
  }
  std::vector<telemetry::WindowRecord> windows;
  std::vector<telemetry::RunSummary> summaries;

 private:
  std::atomic<bool>* flag_;
};

TEST(Cancel, StopsAtTheNextWindowBoundary) {
  LainContext ctx;
  std::atomic<bool> cancel{false};
  CancelAfterFirstWindow sink(&cancel);
  NocRunSpec spec = base_spec(0.05);
  spec.telemetry.sink = &sink;
  spec.telemetry.cancel = &cancel;
  const NocRunResult r = ctx.run_noc(spec);

  EXPECT_TRUE(r.canceled);
  // The flag was set while the first window was being delivered; the
  // control hook saw it when that same boundary's verdict was taken,
  // so exactly one window closed.
  EXPECT_EQ(sink.windows.size(), 1u);
  ASSERT_EQ(sink.summaries.size(), 1u);
  EXPECT_TRUE(sink.summaries[0].canceled);
  EXPECT_LT(sink.summaries[0].cycles,
            spec.sim.warmup_cycles + spec.sim.measure_cycles);
}

}  // namespace
}  // namespace lain::core
