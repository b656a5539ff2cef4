// test_telemetry.cpp — the streaming telemetry layer: windowed
// metrics carry the same bit-identity contract as end-of-run stats
// (serial vs 1/2/4/8 shards, both partition shapes, mesh and torus),
// the profiling counters and flit-trace ring behave as documented,
// the JSONL schema round-trips exactly, and the telemetry CLI flags
// parse into the scenario spec of the scenarios that accept them.

#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/json.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/sim.hpp"
#include "noc/trace.hpp"

namespace lain {
namespace {

using core::json_field;
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
    SCOPED_TRACE("window " + std::to_string(i));
    const telemetry::WindowRecord& a = serial_sink.windows[i];
    const telemetry::WindowRecord& b = sharded_sink.windows[i];
    EXPECT_EQ(a.window.begin, b.window.begin);
    EXPECT_EQ(a.window.end, b.window.end);
    expect_stats_bit_identical(a.window.stats, b.window.stats);
    EXPECT_EQ(a.flits_in_flight, b.flits_in_flight);
    // Exact double equality on the energy deltas.
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.xbar_energy_j, b.xbar_energy_j);
    EXPECT_EQ(a.buffer_energy_j, b.buffer_energy_j);
    EXPECT_EQ(a.arbiter_energy_j, b.arbiter_energy_j);
    EXPECT_EQ(a.link_energy_j, b.link_energy_j);
    EXPECT_EQ(a.standby_cycles, b.standby_cycles);
    EXPECT_EQ(a.realized_saving_j, b.realized_saving_j);
  }
  // The windows saw real traffic and real energy.
  std::int64_t ejected = 0;
  double energy = 0.0;
  for (const telemetry::WindowRecord& w : serial_sink.windows) {
    ejected += w.window.stats.packets_ejected;
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
  // One component and one exchange call per shard per executed cycle.
  const std::int64_t executed = sim.now() - sim.skipped_cycles();
  EXPECT_EQ(totals.component_calls, 2 * executed);
  EXPECT_EQ(totals.exchange_calls, 2 * executed);
  EXPECT_GT(totals.channel_ticks, 0);
  EXPECT_GE(totals.component_ns, 0);
  EXPECT_GE(totals.barrier_ns, 0);
  // Each shard wrote its own slot.
  EXPECT_GT(collector.at(0).component_calls, 0);
  EXPECT_GT(collector.at(1).component_calls, 0);
}

// An event-stepped exchange ticks exactly the channels a flit or a
// credit was sent on (one shard, so no boundary channels).  The
// reference steps the same fabric and traffic stream by hand, ticking
// every component and every channel each cycle, and counts the
// (channel, cycle) pairs whose tick admitted something.
TEST(TelemetryCounters, EventChannelTicksCountOnlyLinksSentOn) {
  SimConfig cfg = mesh8(0.0005);
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 200;
  cfg.seed = 6;  // one packet in the whole run
  Simulation sim(cfg);
  ASSERT_TRUE(sim.event_stepping());
  telemetry::Collector collector;
  sim.set_telemetry(&collector);
  ASSERT_EQ(sim.run().packets_ejected, 1);

  noc::Network net(cfg);
  noc::TrafficGenerator gen(cfg);
  int packets = 0;
  std::int64_t sent_pairs = 0;
  for (Cycle t = 0; t < sim.now(); ++t) {
    for (noc::NodeId n = 0; n < net.num_nodes(); ++n) {
      if (t >= cfg.warmup_cycles + cfg.measure_cycles) break;
      const noc::NodeId dst = gen.maybe_generate(n);
      if (dst != noc::kInvalidNode) net.nic(n).source_packet(dst, t, packets++);
    }
    for (noc::NodeId n = 0; n < net.num_nodes(); ++n) net.nic(n).tick(t);
    for (noc::NodeId n = 0; n < net.num_nodes(); ++n) net.router(n).tick();
    for (int c = 0; c < 2 * net.num_links(); ++c) {
      if (net.tick_channel(c)) ++sent_pairs;
    }
  }
  EXPECT_EQ(packets, 1);
  EXPECT_EQ(net.flits_in_flight(), 0);
  EXPECT_GT(sent_pairs, 0);
  EXPECT_EQ(collector.totals().channel_ticks, sent_pairs);
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
  w.window.index = 3;
  w.window.begin = 600;
  w.window.end = 800;
  SimStats& st = w.window.stats;
  st.packets_ejected = 3;
  for (const std::int64_t latency : {2, 97, 97}) {
    st.packet_latency.add(static_cast<double>(latency));
    st.latency_hist.add(latency);
  }
  st.flits_ejected = 1;
  st.num_nodes = 7;
  st.measured_cycles = 200;
  w.total_energy_j = 0.1 + 0.2;  // classic rounding trap
  const std::string line = telemetry::to_json(w);
  EXPECT_NE(line.find("\"type\":\"window\""), std::string::npos);
  EXPECT_EQ(json_field(line, "type"), "window");
  EXPECT_EQ(json_field(line, "run"), "run-42");
  EXPECT_EQ(json_field(line, "index"), "3");
  EXPECT_EQ(json_field(line, "packets_ejected"), "3");
  EXPECT_EQ(json_field(line, "latency_p95"), "97");
  // %.17g emission + strtod parse: exact round-trip, not approximate.
  // The mean (196/3) and throughput (1/1400) are not representable in
  // decimal.
  const auto number = [&line](const char* key) {
    const std::optional<std::string> text = json_field(line, key);
    EXPECT_TRUE(text.has_value()) << key;
    return text ? std::stod(*text) : -1.0;
  };
  EXPECT_EQ(number("latency_mean"), st.packet_latency.mean());
  EXPECT_EQ(number("throughput"), st.throughput_flits_per_node_cycle());
  EXPECT_EQ(number("total_energy_j"), w.total_energy_j);
  EXPECT_FALSE(json_field(line, "no_such_key").has_value());
}

TEST(JsonSchema, ManifestAndSummaryAndFlitEncode) {
  telemetry::RunManifest m;
  m.run = "run-0";
  m.scheme = "with \"quotes\" and \\slashes\\\tand\na control byte";
  m.sim.topology = noc::TopologyKind::kTorus;
  m.sim.pattern = noc::TrafficPattern::kTranspose;
  m.shards = 4;
  const std::string mj = telemetry::to_json(m);
  EXPECT_NE(mj.find("\"type\":\"manifest\""), std::string::npos);
  // Quotes and backslashes round-trip; control bytes become spaces, so
  // the record stays on one line.
  EXPECT_EQ(mj.find('\n'), std::string::npos);
  EXPECT_EQ(json_field(mj, "scheme"),
            "with \"quotes\" and \\slashes\\ and a control byte");
  EXPECT_EQ(json_field(mj, "topology"), "torus");
  EXPECT_EQ(json_field(mj, "pattern"), "transpose");
  EXPECT_EQ(json_field(mj, "shards"), "4");

  telemetry::RunSummary s;
  s.run = "run-0";
  s.saturated = true;
  s.windows = 9;
  const std::string sj = telemetry::to_json(s);
  EXPECT_NE(sj.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_EQ(json_field(sj, "saturated"), "true");
  EXPECT_EQ(json_field(sj, "windows"), "9");

  telemetry::FlitRecord f;
  f.run = "run-0";
  f.event.cycle = 11;
  f.event.kind = FlitTraceKind::kEject;
  const std::string fj = telemetry::to_json(f);
  EXPECT_NE(fj.find("\"type\":\"flit\""), std::string::npos);
  EXPECT_EQ(json_field(fj, "kind"), "eject");
}

TEST(JsonSchema, ManifestKeysAreTheRunIdentity) {
  // Every run setting a scenario flag can change has a manifest key;
  // the fault schedule's keys appear only when faults are on, like the
  // window records' fault columns.
  const auto keys = [](const telemetry::RunManifest& m) {
    std::vector<std::string> out;
    for (const core::JsonField& f :
         core::parse_flat_json_object(telemetry::to_json(m))) {
      out.push_back(f.key);
    }
    return out;
  };
  const std::vector<std::string> head = {
      "type", "run", "git_rev", "scheme", "gating", "topology", "radix_x",
      "radix_y", "vcs", "vc_depth_flits", "pattern", "injection_rate",
      "packet_length_flits", "hotspot_fraction", "burst_duty",
      "burst_on_mean_cycles", "seed", "warmup_cycles", "measure_cycles",
      "drain_limit_cycles"};
  const std::vector<std::string> fault = {
      "fault_links", "fault_routers", "fault_at", "fault_seed",
      "fault_repair", "allow_partition"};
  const std::vector<std::string> tail = {"shards", "partition",
                                         "boundary_links", "window_cycles",
                                         "trace_flits"};

  telemetry::RunManifest m;
  std::vector<std::string> expected = head;
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(keys(m), expected);

  m.sim.fault.links = 2;
  m.sim.fault.repair = 300;
  expected = head;
  expected.insert(expected.end(), fault.begin(), fault.end());
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(keys(m), expected);
  const std::string line = telemetry::to_json(m);
  EXPECT_EQ(json_field(line, "fault_links"), "2");
  EXPECT_EQ(json_field(line, "fault_repair"), "300");
  EXPECT_EQ(json_field(line, "allow_partition"), "false");

  // A run's manifest records the schedule its kernel runs, which
  // arrives as a run option beside the spec's SimConfig.
  core::LainContext ctx;
  telemetry::MemorySink sink;
  NocRunSpec spec;
  spec.sim = mesh8(0.05);
  spec.fault.links = 2;
  spec.telemetry.sink = &sink;
  ctx.run_noc(spec);
  ASSERT_EQ(sink.manifests.size(), 1u);
  EXPECT_EQ(keys(sink.manifests[0]), expected);
  EXPECT_EQ(sink.manifests[0].sim.fault.links, 2);
}

TEST(JsonSchema, SummaryRecordsTheKernelsStepping) {
  // The summary says how the kernel stepped and how many cycles it
  // jumped: event-driven at any rate, per-cycle only on the reference
  // pipeline (enable_idle_fastpath off), which jumps none.
  core::LainContext ctx;
  for (const double rate : {0.002, 0.05}) {
    for (const bool reference : {false, true}) {
      telemetry::MemorySink sink;
      NocRunSpec spec;
      spec.sim = mesh8(rate);
      spec.sim.enable_idle_fastpath = !reference;
      spec.telemetry.sink = &sink;
      ctx.run_noc(spec);
      ASSERT_EQ(sink.summaries.size(), 1u);
      const std::string line = telemetry::to_json(sink.summaries[0]);
      const std::optional<std::string> skipped =
          json_field(line, "skipped_cycles");
      ASSERT_TRUE(skipped.has_value());
      if (reference) {
        EXPECT_EQ(json_field(line, "stepping"), "per_cycle");
        EXPECT_EQ(*skipped, "0");
      } else {
        EXPECT_EQ(json_field(line, "stepping"), "event");
        if (rate == 0.002) {
          EXPECT_GT(std::stoll(*skipped), 0);
        }
      }
    }
  }
}

TEST(JsonSchema, SummaryIdleFastTicksEqualTheWindowSum) {
  // The summary reports the kernel's own idle-fast-path count, which
  // under event stepping includes the idle spans settled at window
  // boundaries and at the end of the run: the windows' deltas sum to
  // it at any window size, at a sparse and a dense rate.
  core::LainContext ctx;
  for (const double rate : {0.002, 0.05}) {
    for (const Cycle window : {Cycle{250}, Cycle{100000}}) {
      SCOPED_TRACE("rate " + std::to_string(rate) + " window " +
                   std::to_string(window));
      telemetry::MemorySink sink;
      NocRunSpec spec;
      spec.sim = mesh8(rate);
      spec.telemetry.metrics_window = window;
      spec.telemetry.sink = &sink;
      ctx.run_noc(spec);
      ASSERT_EQ(sink.summaries.size(), 1u);
      ASSERT_FALSE(sink.windows.empty());
      std::int64_t sum = 0;
      for (const telemetry::WindowRecord& w : sink.windows) {
        sum += w.idle_fast_ticks;
      }
      EXPECT_GT(sum, 0);
      EXPECT_EQ(sink.summaries[0].idle_fast_ticks, sum);
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
  w.window.index = 5;
  fan.on_window(w);
  ASSERT_EQ(a.windows.size(), 1u);
  ASSERT_EQ(b.windows.size(), 1u);
  EXPECT_EQ(a.windows[0].window.index, 5);
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
  // Only the scenarios that simulate a network take them: table1
  // rejects them instead of streaming nothing.
  const core::Scenario& table1 = *reg.find("table1");
  EXPECT_THROW(core::ArgParser(2,
                               std::vector<const char*>{"--metrics-window",
                                                        "100"}
                                   .data(),
                               reg.value_flags_for(table1),
                               reg.switch_flags_for(table1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lain
