// bench_suite.hpp — the experiment implementations behind the
// lain_bench subcommands (core/scenario.hpp).
//
// Each experiment expands its axes through SweepAxes, executes the
// resulting job list on a SweepEngine, and folds the records into a
// ReportTable.  The subcommands are thin wrappers: axes in, table out
// — no per-experiment loop or printf formatting left in the CLI.
//
// Every experiment takes a LainContext first: characterizations come
// from the context's shared cache (one per distinct (spec, scheme)
// pair, however many jobs ask) and simulation kernels lease their
// workers from its thread budget.  The simulating experiments take
// their engine options as one RunOptions (core/experiments.hpp).

#pragma once

#include <cstdint>
#include <vector>

#include "core/experiments.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"
#include "noc/parallel/partition.hpp"
#include "tech/itrs.hpp"

namespace lain::core {

class LainContext;

// --- E8: powered-NoC injection sweep ---------------------------------------
struct NocSweepOptions {
  std::vector<xbar::Scheme> schemes{xbar::Scheme::kSC, xbar::Scheme::kDFC,
                                    xbar::Scheme::kDPC, xbar::Scheme::kSDFC,
                                    xbar::Scheme::kSDPC};
  std::vector<noc::TrafficPattern> patterns{noc::TrafficPattern::kUniform};
  std::vector<double> rates{0.05, 0.15, 0.30};
  // Traffic-diversity axes: hotspot share (hotspot pattern) and burst
  // duty cycle (1.0 = unmodulated).
  std::vector<double> hotspot_fracs{0.2};
  std::vector<double> burst_duties{1.0};
  double burst_on_mean_cycles = 50.0;
  std::vector<std::uint64_t> seeds{1};
  bool gating = true;
  // Engine options for every run in the sweep.  A telemetry sink must
  // be thread-safe when the engine runs jobs in parallel (the built-in
  // JSONL sink is); records carry per-run ids, so interleaved streams
  // demultiplex cleanly.
  RunOptions run;
};
// Columns: pattern scheme rate [hotspot] [duty] [seed] lat thr
// xbar-mW stby% saved-mW.  Optional axis columns appear only with
// more than one value on that axis.
ReportTable injection_sweep(LainContext& ctx, const NocSweepOptions& opt,
                            const SweepEngine& engine);

// --- E9: crossbar idle-run-length distribution -----------------------------
struct IdleHistogramOptions {
  std::vector<noc::TrafficPattern> patterns{noc::TrafficPattern::kUniform};
  std::vector<double> rates{0.05, 0.15, 0.30};
  std::vector<double> hotspot_fracs{0.2};
  std::vector<double> burst_duties{1.0};
  double burst_on_mean_cycles = 50.0;
  std::vector<std::uint64_t> seeds{1};
  RunOptions run;  // see NocSweepOptions::run
};
// Columns: pattern rate [hotspot] [duty] [seed] runs mean p50 p95 +
// gateable fraction >= 1/2/3.
ReportTable idle_histogram(LainContext& ctx, const IdleHistogramOptions& opt,
                           const SweepEngine& engine);

// --- Mesh-vs-torus topology comparison -------------------------------------
struct MeshVsTorusOptions {
  std::vector<int> radices{4, 8};
  std::vector<double> rates{0.05, 0.15, 0.30};
  std::vector<noc::TrafficPattern> patterns{noc::TrafficPattern::kUniform,
                                            noc::TrafficPattern::kTornado};
  xbar::Scheme scheme = xbar::Scheme::kSDPC;
  std::uint64_t seed = 1;
  bool gating = true;
  RunOptions run;  // see NocSweepOptions::run
};
// One row per (pattern, radix, rate): mesh and torus latency,
// throughput and crossbar power side by side.  The torus has been
// simulated (dateline VCs) since the seed but no bench exposed it.
ReportTable mesh_vs_torus(LainContext& ctx, const MeshVsTorusOptions& opt,
                          const SweepEngine& engine);

// --- Sharded-kernel node-count scaling -------------------------------------
struct MeshScalingOptions {
  std::vector<int> radices{8, 16};       // square mesh radix per row
  // Partition strategies to compare; each is timed at every shard
  // count.  The first (strategy, shard count) pair per radix is the
  // speedup/bit-identity baseline.
  std::vector<noc::PartitionStrategy> partitions{
      noc::PartitionStrategy::kRowBands, noc::PartitionStrategy::kBlocks2D};
  std::vector<int> shard_counts{1, 2, 4};
  // Engine options for every timed run.  The two axes above take the
  // place of run.sim_threads and run.partition; no telemetry is
  // attached, so the timings stay clean.
  RunOptions run;
  double injection_rate = 0.05;
  noc::TrafficPattern pattern = noc::TrafficPattern::kUniform;
  noc::Cycle warmup_cycles = 200;
  noc::Cycle measure_cycles = 1000;
  std::uint64_t seed = 1;
};
// Times one simulation per (radix, partition, shards) on the calling
// thread (sequentially, so wall-clock numbers are not polluted by
// sibling jobs) and reports the plan's boundary-link count,
// simulated Mcycles/s and Mnode-cycles/s, speedup vs the first row of
// the radix and whether the stats matched that row bit-for-bit (they
// must, for every partition shape).
ReportTable mesh_scaling(const MeshScalingOptions& opt);

// --- E12: temperature / corner sensitivity ---------------------------------
struct CornerSweepOptions {
  std::vector<double> temps_c{25.0, 70.0, 110.0};
  std::vector<xbar::Scheme> schemes{xbar::Scheme::kSC, xbar::Scheme::kDFC,
                                    xbar::Scheme::kDPC, xbar::Scheme::kSDPC};
};
ReportTable corner_sweep(LainContext& ctx, const CornerSweepOptions& opt,
                         const SweepEngine& engine);
// Device-level SS/TT/FF check (1 um NMOS): Ioff, high-Vt Ioff, Ion,
// dual-Vt leakage ratio.
ReportTable corner_device_report();

// --- E11: technology-node scaling ------------------------------------------
struct NodeScalingOptions {
  std::vector<tech::Node> nodes{tech::Node::k90nm, tech::Node::k65nm,
                                tech::Node::k45nm};
  std::vector<xbar::Scheme> schemes{xbar::Scheme::kSC, xbar::Scheme::kDPC,
                                    xbar::Scheme::kSDPC};
};
ReportTable node_scaling(LainContext& ctx, const NodeScalingOptions& opt,
                         const SweepEngine& engine);
// Savings-vs-SC matrix: one row per node, one column per scheme.
ReportTable node_scaling_savings(LainContext& ctx,
                                 const NodeScalingOptions& opt,
                                 const SweepEngine& engine);

// --- E7: static-probability sweep ------------------------------------------
struct StaticProbabilityOptions {
  std::vector<double> probabilities;  // empty = 0.1 .. 0.9
  std::vector<xbar::Scheme> schemes{xbar::Scheme::kSC, xbar::Scheme::kDFC,
                                    xbar::Scheme::kDPC, xbar::Scheme::kSDFC,
                                    xbar::Scheme::kSDPC};
};
ReportTable static_probability(LainContext& ctx,
                               const StaticProbabilityOptions& opt,
                               const SweepEngine& engine);
// Worst-case p per scheme (the Table-1 footnote check).
ReportTable static_probability_worst_case(LainContext& ctx,
                                          const SweepEngine& engine);

// --- E6: Minimum Idle Time breakeven ---------------------------------------
ReportTable breakeven_table(LainContext& ctx, const SweepEngine& engine);
ReportTable breakeven_net_energy(LainContext& ctx, const SweepEngine& engine,
                                 int max_idle = 10);
ReportTable breakeven_policy_check(int idle_run_cycles = 50);

// --- E5: segmentation ablation ---------------------------------------------
ReportTable segmentation_ablation(LainContext& ctx,
                                  const SweepEngine& engine);

}  // namespace lain::core
