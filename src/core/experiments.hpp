// experiments.hpp — the shared vocabulary of the experiment layer:
// canonical configurations, the engine options of a simulation run,
// the spec/result pair of one powered NoC run
// (LainContext::run_noc, core/context.hpp), and the ScenarioSpec every
// experiment (core/bench_suite.hpp) reads its axes from.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/noc_integration.hpp"
#include "core/table1.hpp"
#include "noc/parallel/partition.hpp"

namespace lain::telemetry {
class MetricsSink;
}  // namespace lain::telemetry

namespace lain::core {

// Canonical NoC power configuration for a scheme at the Table-1
// technology point (5-port routers, 128-bit flits).
NocPowerConfig default_noc_power(xbar::Scheme scheme,
                                 bool enable_gating = true);

// Canonical simulation config for a square radix x radix fabric.
noc::SimConfig make_sim_config(int radix, noc::TopologyKind topology,
                               double injection_rate,
                               noc::TrafficPattern pattern,
                               std::uint64_t seed = 1);

// Canonical 5x5-mesh simulation config used by the E8/E9 experiments.
noc::SimConfig default_mesh_config(double injection_rate,
                                   noc::TrafficPattern pattern,
                                   std::uint64_t seed = 1);

// Kelvin of a --temps value (degrees C), as corner_sweep applies it.
constexpr double temp_k_of_c(double temp_c) { return temp_c + 273.0; }

// Result of one powered NoC run.
struct NocRunResult {
  xbar::Scheme scheme;
  double injection_rate = 0.0;
  noc::TrafficPattern pattern = noc::TrafficPattern::kUniform;
  double avg_packet_latency_cycles = 0.0;
  double throughput_flits_node_cycle = 0.0;
  double network_power_w = 0.0;
  double crossbar_power_w = 0.0;
  double standby_fraction = 0.0;       // crossbar cycles spent gated
  double realized_saving_w = 0.0;      // vs never gating
  bool saturated = false;
  // Run-lifecycle controls (TelemetryOptions below): the run was
  // stopped early at a window boundary.  Derived columns then cover
  // only the measured cycles that elapsed.
  bool canceled = false;
  bool aborted_saturated = false;
  // Fault-injection outcome (RunOptions::fault below); all zero/false
  // when the run injected no faults.
  std::int64_t packets_lost = 0;
  std::int64_t packets_retransmitted = 0;
  std::int64_t packets_unreachable_dropped = 0;
  std::int64_t unreachable_pairs = 0;  // final fabric state
  bool aborted_disconnected = false;
};

// Streaming-telemetry attachment for a run.  With a sink the run
// emits the full record stream (manifest, windows, flit trace,
// summary — see core/metrics.hpp); without one a nonzero
// metrics_window still closes windows, the boundaries at which the
// cancel and saturation controls act.
// None of it changes the simulation: the stats stay bit-identical
// with telemetry on, off, or compiled out.
struct TelemetryOptions {
  noc::Cycle metrics_window = 0;       // cycles per window; 0 disables
  std::int64_t trace_flits = 0;        // per-shard trace ring capacity
  telemetry::MetricsSink* sink = nullptr;  // not owned; may be null
  // Run-lifecycle controls, both checked at window boundaries only —
  // they require a nonzero metrics_window and are inert without one.
  //
  // Saturation guard: abort the run once a closed window's mean
  // packet latency exceeds `abort_latency_mult` x the zero-load
  // reference (the first closed window that ejected packets — at zero
  // load the windowed mean equals the zero-load latency, which is why
  // it serves as the reference).  <= 0 disables.  A run the guard
  // never fires on is bit-identical to one without the guard.
  double abort_latency_mult = 0.0;
  // Cooperative cancel: when non-null and set, the run stops at the
  // next window boundary (checked before the run starts, too).  Not
  // owned; must outlive the run.
  const std::atomic<bool>* cancel = nullptr;
  // Disconnect guard: abort at the first window boundary after a
  // fault partitioned the fabric (only reachable with --fault-* plus
  // --allow-partition; without the latter a disconnecting schedule is
  // rejected before the run starts).  Serve callers use this to fail
  // jobs fast instead of simulating a degraded fabric to completion.
  bool abort_on_disconnect = false;
};

// Engine options of one simulation run: the --sim-threads,
// --partition and --pin-threads flags and the fault and telemetry flag
// groups of the NoC scenarios (core/scenario.hpp), declared once here
// and applied to the SimConfig and the kernel in one place
// (apply_run_options, core/context.hpp).
// sim_threads == 1 runs the serial kernel; > 1 runs the sharded
// parallel kernel with that many shards; <= 0 lets the kernel
// auto-shard by radix.  `partition` picks the shard shape (rows /
// blocks2d / auto) and `pin_threads` pins the shard workers to cores.
// The stats — and therefore every simulation-derived column — are
// bit-identical across all of them: only `fault` changes what is
// simulated.  The kernel picks per-cycle or event stepping itself
// (noc::SimKernel::kEventSteppingMaxRate).
struct RunOptions {
  int sim_threads = 1;
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
  bool pin_threads = false;
  noc::FaultSpec fault;  // deterministic fault schedule; none by default
  TelemetryOptions telemetry;
};

// Fully specified powered run: any SimConfig (topology, radix,
// traffic-diversity knobs) plus the power scheme, run under the
// inherited engine options.  Those options own the fault schedule:
// it replaces sim.fault.
struct NocRunSpec : RunOptions {
  NocRunSpec() = default;
  explicit NocRunSpec(const RunOptions& run) : RunOptions(run) {}

  xbar::Scheme scheme = xbar::Scheme::kSC;
  noc::SimConfig sim;
  bool enable_gating = true;
};

// Plain-data description of one experiment invocation, produced from
// CLI flags (build_scenario_spec, core/scenario.hpp) or filled
// directly by library callers.  Each experiment reads only the fields
// of its own axes; an empty axis yields an empty table, so library
// callers set every axis the experiment reads.
struct ScenarioSpec {
  int threads = 1;       // sweep worker lanes (0 = all cores)
  // Engine options of every simulation the scenario runs: the fault
  // and telemetry flag groups, plus --sim-threads (0 = auto, 1 =
  // serial), --partition and --pin-threads, where the scenario accepts
  // them.  Ignored by scenarios without a cycle-accurate simulation.
  // run.telemetry.sink is filled by the CLI driver from
  // --metrics-out/--progress; library callers may install any
  // MetricsSink (not owned; must outlive the run), and serve callers a
  // cancel flag.  A sink must be thread-safe when the engine runs jobs
  // in parallel (the built-in JSONL sink is); records carry per-run
  // ids, so interleaved streams demultiplex cleanly.
  RunOptions run;
  // mesh_scaling's axes, in place of run.sim_threads / run.partition.
  // The first (partition, shard count) pair per radix is its speedup
  // and bit-identity baseline.
  std::vector<int> sim_thread_list{1, 2, 4};
  std::vector<noc::PartitionStrategy> partition_list{
      noc::PartitionStrategy::kRowBands, noc::PartitionStrategy::kBlocks2D};

  std::vector<xbar::Scheme> schemes;
  std::vector<noc::TrafficPattern> patterns;
  std::vector<double> rates;
  // Traffic-diversity axes: hotspot share (hotspot pattern) and burst
  // duty cycle (1.0 = unmodulated).
  std::vector<double> hotspot_fracs{0.2};
  std::vector<double> burst_duties{1.0};
  double burst_on_mean_cycles = 50.0;
  std::vector<double> temps_c;
  std::vector<double> probabilities;  // empty = experiment default
  std::vector<int> radices;

  std::uint64_t seed = 1;
  std::vector<std::uint64_t> seeds{1};  // expanded from seed/replicates
  bool gating = true;

  // CLI-side metrics emitters, installed by run_scenario_cli.
  std::string metrics_out;            // --metrics-out FILE ('-' = stdout)
  bool progress = false;              // --progress: stderr window lines
};

}  // namespace lain::core
