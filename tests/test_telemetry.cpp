// test_telemetry.cpp — the streaming telemetry layer: windowed
// metrics carry the same bit-identity contract as end-of-run stats
// (serial vs 1/2/4/8 shards, both partition shapes, mesh and torus),
// the profiling counters and flit-trace ring behave as documented,
// the JSONL schema round-trips exactly, and the universal CLI flags
// parse into the scenario spec.

#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"
#include "noc/trace.hpp"

namespace lain {
namespace {

using core::NocRunSpec;
using core::ScenarioRegistry;
using noc::Cycle;
using noc::FlitTraceEvent;
using noc::FlitTraceKind;
using noc::FlitTraceRing;
using noc::PartitionStrategy;
using noc::ShardedOptions;
using noc::ShardedSimulation;
using noc::SimConfig;
using noc::SimKernel;
using noc::SimStats;
using noc::Simulation;

SimConfig mesh8(double rate,
                noc::TopologyKind topo = noc::TopologyKind::kMesh) {
  SimConfig cfg;
  cfg.radix_x = 8;
  cfg.radix_y = 8;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.topology = topo;
  cfg.injection_rate = rate;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  cfg.drain_limit_cycles = 6000;
  cfg.seed = 7;
  return cfg;
}

void expect_stats_bit_identical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.flits_injected, b.flits_injected);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  // Exact double equality, as for end-of-run stats: the per-window
  // merge must reproduce the serial sums bit-for-bit.
  EXPECT_EQ(a.packet_latency.count(), b.packet_latency.count());
  EXPECT_EQ(a.packet_latency.mean(), b.packet_latency.mean());
  EXPECT_EQ(a.packet_latency.variance(), b.packet_latency.variance());
  EXPECT_EQ(a.packet_latency.min(), b.packet_latency.min());
  EXPECT_EQ(a.packet_latency.max(), b.packet_latency.max());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.hops.mean(), b.hops.mean());
  EXPECT_EQ(a.latency_hist.count(), b.latency_hist.count());
  EXPECT_TRUE(a.latency_hist.bins() == b.latency_hist.bins());
}

std::vector<SimKernel::MetricsWindow> run_windowed(SimKernel& sim,
                                                   Cycle window) {
  std::vector<SimKernel::MetricsWindow> out;
  sim.set_metrics_window(window, [&out](const SimKernel::MetricsWindow& w) {
    out.push_back(w);
  });
  sim.run();
  return out;
}

void expect_windows_bit_identical(
    const std::vector<SimKernel::MetricsWindow>& a,
    const std::vector<SimKernel::MetricsWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "window " << i;
    EXPECT_EQ(a[i].begin, b[i].begin) << "window " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "window " << i;
    expect_stats_bit_identical(a[i].stats, b[i].stats);
  }
}

// The tentpole pin: the windowed series obeys the same determinism
// contract as end-of-run stats — serial vs 1/2/4/8 shards, both
// partition shapes, mesh and torus, all bit-identical per window.
TEST(WindowedMetrics, BitIdenticalSeriesAcrossShardsPartitionsTopologies) {
  for (noc::TopologyKind topo :
       {noc::TopologyKind::kMesh, noc::TopologyKind::kTorus}) {
    const SimConfig cfg = mesh8(0.10, topo);
    Simulation serial(cfg);
    const std::vector<SimKernel::MetricsWindow> reference =
        run_windowed(serial, 200);
    ASSERT_GE(reference.size(), 4u);  // 800 measured cycles / 200
    for (PartitionStrategy partition :
         {PartitionStrategy::kRowBands, PartitionStrategy::kBlocks2D}) {
      for (int shards : {1, 2, 4, 8}) {
        ShardedOptions o;
        o.shards = shards;
        o.partition = partition;
        ShardedSimulation sim(cfg, o);
        expect_windows_bit_identical(reference, run_windowed(sim, 200));
      }
    }
  }
}

TEST(WindowedMetrics, EndOfRunStatsUnchangedByWindowing) {
  const SimConfig cfg = mesh8(0.10);
  const SimStats plain = Simulation(cfg).run();
  Simulation windowed(cfg);
  int windows = 0;
  windowed.set_metrics_window(
      100, [&windows](const SimKernel::MetricsWindow&) { ++windows; });
  expect_stats_bit_identical(plain, windowed.run());
  EXPECT_GE(windows, 8);
}

// Windows tile the measurement span gaplessly, the final (possibly
// partial) window covers the drain tail, and the per-window event
// counts sum exactly to the end-of-run totals.
TEST(WindowedMetrics, WindowsTileTheRunAndConserveEventCounts) {
  const SimConfig cfg = mesh8(0.12);
  Simulation sim(cfg);
  std::vector<SimKernel::MetricsWindow> windows;
  sim.set_metrics_window(300, [&windows](const SimKernel::MetricsWindow& w) {
    windows.push_back(w);
  });
  const SimStats total = sim.run();
  ASSERT_FALSE(windows.empty());
  EXPECT_EQ(windows.front().begin, cfg.warmup_cycles);
  EXPECT_EQ(windows.back().end, sim.now());
  std::int64_t injected = 0, ejected = 0, samples = 0;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(windows[i].begin, windows[i - 1].end);
    }
    EXPECT_EQ(windows[i].index, static_cast<std::int64_t>(i));
    EXPECT_EQ(windows[i].stats.measured_cycles,
              windows[i].end - windows[i].begin);
    EXPECT_EQ(windows[i].stats.num_nodes, cfg.num_nodes());
    injected += windows[i].stats.packets_injected;
    ejected += windows[i].stats.packets_ejected;
    samples += windows[i].stats.packet_latency.count();
  }
  EXPECT_EQ(injected, total.packets_injected);
  EXPECT_EQ(ejected, total.packets_ejected);
  EXPECT_EQ(samples, total.packet_latency.count());
}

TEST(WindowedMetrics, ObserverSlicesSeeEveryWindowFlush) {
  struct FlushSlice final : noc::ObserverSlice {
    int* flushes;
    std::vector<Cycle>* boundaries;
    void on_cycle(Cycle, noc::Network&, const noc::ShardPlan&) override {}
    void on_window_flush(Cycle boundary) override {
      ++*flushes;
      boundaries->push_back(boundary);
    }
  };
  SimConfig cfg = mesh8(0.05);
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 400;
  ShardedOptions o;
  o.shards = 4;
  o.partition = PartitionStrategy::kBlocks2D;
  ShardedSimulation sim(cfg, o);
  int flushes = 0;
  std::vector<Cycle> boundaries;
  sim.set_observer([&](int, const noc::ShardPlan&) {
    auto slice = std::make_unique<FlushSlice>();
    slice->flushes = &flushes;
    slice->boundaries = &boundaries;
    return slice;
  });
  const std::vector<SimKernel::MetricsWindow> windows =
      run_windowed(sim, 100);
  // Every one of the 4 slices is flushed once per closed window, on
  // the calling thread, with the window's end cycle.
  EXPECT_EQ(flushes, static_cast<int>(4 * windows.size()));
  ASSERT_GE(boundaries.size(), 4u);
  EXPECT_EQ(boundaries[0], windows[0].end);
}

// The power columns stream as per-window deltas of the cumulative
// fixed-order sums, so they inherit the bit-identity contract too.
TEST(WindowedMetrics, PowerColumnsBitIdenticalSerialVsSharded) {
  telemetry::MemorySink serial_sink;
  telemetry::MemorySink sharded_sink;
  NocRunSpec spec;
  spec.scheme = xbar::Scheme::kSDPC;
  spec.sim = core::default_mesh_config(0.1, noc::TrafficPattern::kUniform, 3);
  spec.telemetry.metrics_window = 250;
  spec.telemetry.sink = &serial_sink;
  core::LainContext ctx;
  ctx.run_noc(spec);
  spec.sim_threads = 4;
  spec.partition = PartitionStrategy::kBlocks2D;
  spec.telemetry.sink = &sharded_sink;
  ctx.run_noc(spec);

  ASSERT_EQ(serial_sink.manifests.size(), 1u);
  ASSERT_EQ(sharded_sink.manifests.size(), 1u);
  EXPECT_EQ(serial_sink.manifests[0].shards, 1);
  // The context resolves the requested shard count against the fabric
  // (a 5x5 mesh cannot always carry 4 shards); the manifest reports
  // the resolved value.
  EXPECT_GT(sharded_sink.manifests[0].shards, 1);
  EXPECT_EQ(serial_sink.manifests[0].scheme, "SDPC");
  ASSERT_EQ(serial_sink.summaries.size(), 1u);
  ASSERT_EQ(sharded_sink.summaries.size(), 1u);
  ASSERT_GE(serial_sink.windows.size(), 2u);
  ASSERT_EQ(serial_sink.windows.size(), sharded_sink.windows.size());
  for (std::size_t i = 0; i < serial_sink.windows.size(); ++i) {
    const telemetry::WindowRecord& a = serial_sink.windows[i];
    const telemetry::WindowRecord& b = sharded_sink.windows[i];
    EXPECT_EQ(a.begin, b.begin) << "window " << i;
    EXPECT_EQ(a.end, b.end) << "window " << i;
    EXPECT_EQ(a.packets_ejected, b.packets_ejected) << "window " << i;
    EXPECT_EQ(a.latency_mean, b.latency_mean) << "window " << i;
    EXPECT_EQ(a.latency_p50, b.latency_p50) << "window " << i;
    EXPECT_EQ(a.latency_p95, b.latency_p95) << "window " << i;
    EXPECT_EQ(a.throughput, b.throughput) << "window " << i;
    EXPECT_EQ(a.flits_in_flight, b.flits_in_flight) << "window " << i;
    // Exact double equality on the energy deltas.
    EXPECT_EQ(a.total_energy_j, b.total_energy_j) << "window " << i;
    EXPECT_EQ(a.xbar_energy_j, b.xbar_energy_j) << "window " << i;
    EXPECT_EQ(a.buffer_energy_j, b.buffer_energy_j) << "window " << i;
    EXPECT_EQ(a.arbiter_energy_j, b.arbiter_energy_j) << "window " << i;
    EXPECT_EQ(a.link_energy_j, b.link_energy_j) << "window " << i;
    EXPECT_EQ(a.standby_cycles, b.standby_cycles) << "window " << i;
    EXPECT_EQ(a.realized_saving_j, b.realized_saving_j) << "window " << i;
  }
  // The windows saw real traffic and real energy.
  std::int64_t ejected = 0;
  double energy = 0.0;
  for (const telemetry::WindowRecord& w : serial_sink.windows) {
    ejected += w.packets_ejected;
    energy += w.total_energy_j;
  }
  EXPECT_GT(ejected, 0);
  EXPECT_GT(energy, 0.0);
}

TEST(FlitTrace, RingOverflowKeepsNewestAndCountsDrops) {
  FlitTraceRing ring;
  ring.reset(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::int64_t i = 0; i < 10; ++i) {
    FlitTraceEvent e;
    e.cycle = i;
    e.packet = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6);
  const std::vector<FlitTraceEvent> kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].cycle, static_cast<Cycle>(6 + i));  // oldest first
  }
  // Capacity 0 (default): push is a no-op, nothing is dropped.
  FlitTraceRing off;
  off.push(FlitTraceEvent{});
  EXPECT_EQ(off.size(), 0u);
  EXPECT_EQ(off.dropped(), 0);
}

TEST(FlitTrace, KernelTraceCapturesInjectRouteEjectSorted) {
  SimConfig cfg = mesh8(0.05);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 300;
  Simulation sim(cfg);
  sim.enable_flit_trace(1 << 16);  // ample: nothing drops
  sim.run();
  EXPECT_EQ(sim.flit_trace_dropped(), 0);
  const std::vector<FlitTraceEvent> events = sim.collect_flit_trace();
  ASSERT_FALSE(events.empty());
  std::int64_t injects = 0, routes = 0, ejects = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(events[i - 1].cycle, events[i].cycle);
    }
    switch (events[i].kind) {
      case FlitTraceKind::kInject: ++injects; break;
      case FlitTraceKind::kRoute: ++routes; break;
      case FlitTraceKind::kEject: ++ejects; break;
    }
  }
  EXPECT_GT(injects, 0);
  EXPECT_GT(routes, 0);
  EXPECT_GT(ejects, 0);
  // Multi-hop traffic crosses more switches than it injects packets.
  EXPECT_GT(routes, injects);
  EXPECT_STREQ(noc::flit_trace_kind_name(FlitTraceKind::kRoute), "route");
}

TEST(FlitTrace, TracingDoesNotPerturbStats) {
  const SimConfig cfg = mesh8(0.10);
  const SimStats plain = Simulation(cfg).run();
  Simulation traced(cfg);
  traced.enable_flit_trace(64);  // tiny ring: overwrites happen
  expect_stats_bit_identical(plain, traced.run());
  EXPECT_GT(traced.flit_trace_dropped(), 0);
}

#if LAIN_TELEMETRY
TEST(TelemetryCounters, CollectorAccumulatesPerShardPhaseCounters) {
  SimConfig cfg = mesh8(0.05);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 200;
  ShardedOptions o;
  o.shards = 2;
  o.partition = PartitionStrategy::kRowBands;
  // Declared first so it outlives the kernel: parked workers time
  // their barrier wait into it until the kernel joins them.
  telemetry::Collector collector;
  ShardedSimulation sim(cfg, o);
  sim.set_telemetry(&collector);
  EXPECT_EQ(collector.num_shards(), 2);
  sim.run();
  const telemetry::PhaseCounters totals = collector.totals();
  // One component and one exchange call per shard per cycle.
  EXPECT_EQ(totals.component_calls, 2 * sim.now());
  EXPECT_EQ(totals.exchange_calls, 2 * sim.now());
  EXPECT_GT(totals.channel_ticks, 0);
  EXPECT_GE(totals.component_ns, 0);
  EXPECT_GE(totals.barrier_ns, 0);
  // Each shard wrote its own slot.
  EXPECT_GT(collector.at(0).component_calls, 0);
  EXPECT_GT(collector.at(1).component_calls, 0);
}
#endif  // LAIN_TELEMETRY

TEST(TelemetryCounters, AttachedCollectorDoesNotPerturbStats) {
  const SimConfig cfg = mesh8(0.10);
  const SimStats plain = Simulation(cfg).run();
  Simulation instrumented(cfg);
  telemetry::Collector collector;
  instrumented.set_telemetry(&collector);
  expect_stats_bit_identical(plain, instrumented.run());
}

TEST(JsonSchema, WindowRecordRoundTripsDoublesExactly) {
  telemetry::WindowRecord w;
  w.run = "run-42";
  w.index = 3;
  w.begin = 600;
  w.end = 800;
  w.packets_ejected = 123;
  w.latency_mean = 1.0 / 3.0;          // not representable in decimal
  w.latency_p95 = 97;
  w.throughput = 0.1 + 0.2;            // classic rounding trap
  w.total_energy_j = 3.141592653589793e-9;
  const std::string line = telemetry::to_json(w);
  EXPECT_NE(line.find("\"type\":\"window\""), std::string::npos);
  std::string type, run;
  double index = 0, mean = 0, thr = 0, energy = 0, p95 = 0;
  ASSERT_TRUE(telemetry::json_string_field(line, "type", &type));
  ASSERT_TRUE(telemetry::json_string_field(line, "run", &run));
  ASSERT_TRUE(telemetry::json_number_field(line, "index", &index));
  ASSERT_TRUE(telemetry::json_number_field(line, "latency_mean", &mean));
  ASSERT_TRUE(telemetry::json_number_field(line, "latency_p95", &p95));
  ASSERT_TRUE(telemetry::json_number_field(line, "throughput", &thr));
  ASSERT_TRUE(telemetry::json_number_field(line, "total_energy_j", &energy));
  EXPECT_EQ(type, "window");
  EXPECT_EQ(run, "run-42");
  EXPECT_EQ(index, 3.0);
  EXPECT_EQ(p95, 97.0);
  // %.17g emission + strtod parse: exact round-trip, not approximate.
  EXPECT_EQ(mean, w.latency_mean);
  EXPECT_EQ(thr, w.throughput);
  EXPECT_EQ(energy, w.total_energy_j);
  EXPECT_FALSE(telemetry::json_number_field(line, "no_such_key", &index));
}

TEST(JsonSchema, ManifestAndSummaryAndFlitEncode) {
  telemetry::RunManifest m;
  m.run = "run-0";
  m.scheme = "SDPC";
  m.topology = "torus";
  m.pattern = "with \"quotes\" and \\slashes\\";
  m.shards = 4;
  const std::string mj = telemetry::to_json(m);
  EXPECT_NE(mj.find("\"type\":\"manifest\""), std::string::npos);
  std::string pattern;
  ASSERT_TRUE(telemetry::json_string_field(mj, "pattern", &pattern));
  EXPECT_EQ(pattern, m.pattern);  // escaping round-trips

  telemetry::RunSummary s;
  s.run = "run-0";
  s.saturated = true;
  s.windows = 9;
  const std::string sj = telemetry::to_json(s);
  EXPECT_NE(sj.find("\"type\":\"summary\""), std::string::npos);
  double saturated = 0;
  ASSERT_TRUE(telemetry::json_number_field(sj, "saturated", &saturated));
  EXPECT_EQ(saturated, 1.0);

  telemetry::FlitRecord f;
  f.run = "run-0";
  f.event.cycle = 11;
  f.event.kind = FlitTraceKind::kEject;
  const std::string fj = telemetry::to_json(f);
  EXPECT_NE(fj.find("\"type\":\"flit\""), std::string::npos);
  std::string kind;
  ASSERT_TRUE(telemetry::json_string_field(fj, "kind", &kind));
  EXPECT_EQ(kind, "eject");
}

TEST(JsonSchema, SummaryRecordsTheKernelsStepping) {
  // The summary says which stepping the kernel chose and how many
  // cycles it jumped: event-driven on sparse traffic, per-cycle above
  // SimKernel::kEventSteppingMaxRate.
  core::LainContext ctx;
  for (const double rate : {0.002, 0.05}) {
    telemetry::MemorySink sink;
    NocRunSpec spec;
    spec.sim = mesh8(rate);
    spec.telemetry.sink = &sink;
    ctx.run_noc(spec);
    ASSERT_EQ(sink.summaries.size(), 1u);
    const std::string line = telemetry::to_json(sink.summaries[0]);
    std::string stepping;
    double skipped = -1.0;
    ASSERT_TRUE(telemetry::json_string_field(line, "stepping", &stepping));
    ASSERT_TRUE(
        telemetry::json_number_field(line, "skipped_cycles", &skipped));
    if (rate <= SimKernel::kEventSteppingMaxRate) {
      EXPECT_EQ(stepping, "event");
      EXPECT_GT(skipped, 0.0);
    } else {
      EXPECT_EQ(stepping, "per_cycle");
      EXPECT_EQ(skipped, 0.0);
    }
  }
}

TEST(JsonSchema, MemoryAndMultiSinkFanOut) {
  telemetry::MemorySink a;
  telemetry::MemorySink b;
  telemetry::MultiSink fan;
  fan.add(&a);
  fan.add(&b);
  fan.add(nullptr);  // ignored
  EXPECT_EQ(fan.size(), 2u);
  telemetry::WindowRecord w;
  w.index = 5;
  fan.on_window(w);
  ASSERT_EQ(a.windows.size(), 1u);
  ASSERT_EQ(b.windows.size(), 1u);
  EXPECT_EQ(a.windows[0].index, 5);
}

TEST(ScenarioTelemetryFlags, ParseIntoSpecAndRejectNegatives) {
  const ScenarioRegistry& reg = ScenarioRegistry::builtin();
  const core::Scenario& sc = *reg.find("injection_sweep");
  auto parse = [&](std::vector<const char*> argv) {
    return core::ArgParser(static_cast<int>(argv.size()), argv.data(),
                           reg.value_flags_for(sc),
                           reg.switch_flags_for(sc));
  };
  const core::ScenarioSpec spec = core::build_scenario_spec(
      sc, parse({"--metrics-window", "500", "--metrics-out", "m.jsonl",
                 "--trace-flits", "64", "--progress"}));
  EXPECT_EQ(spec.run.telemetry.metrics_window, 500);
  EXPECT_EQ(spec.metrics_out, "m.jsonl");
  EXPECT_EQ(spec.run.telemetry.trace_flits, 64);
  EXPECT_TRUE(spec.progress);
  EXPECT_EQ(spec.run.telemetry.sink, nullptr);

  const core::ScenarioSpec defaults = core::build_scenario_spec(sc, parse({}));
  EXPECT_EQ(defaults.run.telemetry.metrics_window, 0);
  EXPECT_EQ(defaults.run.telemetry.trace_flits, 0);
  EXPECT_FALSE(defaults.progress);

  EXPECT_THROW(
      core::build_scenario_spec(sc, parse({"--metrics-window", "-5"})),
      std::invalid_argument);
  EXPECT_THROW(
      core::build_scenario_spec(sc, parse({"--trace-flits", "-1"})),
      std::invalid_argument);
  // The flags are universal: even text-only scenarios accept them.
  const core::Scenario& table1 = *reg.find("table1");
  EXPECT_NO_THROW(core::build_scenario_spec(
      table1, core::ArgParser(2, std::vector<const char*>{
                                     "--metrics-window", "100"}.data(),
                              reg.value_flags_for(table1),
                              reg.switch_flags_for(table1))));
}

}  // namespace
}  // namespace lain
