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
// workers from its thread budget.  The swept experiments read their
// axes from a ScenarioSpec (core/experiments.hpp) and the simulating
// ones their engine options from its `run`.

#pragma once

#include "core/experiments.hpp"
#include "core/reporting.hpp"
#include "core/sweep.hpp"
#include "core/table1.hpp"

namespace lain::core {

class LainContext;

// --- E1: the paper's Table 1 ----------------------------------------------
// The five schemes at the paper's design point, characterized in
// parallel through the context's cache.
Table1 measured_table1(LainContext& ctx, const SweepEngine& engine);

// --- E8: powered-NoC injection sweep ---------------------------------------
// Axes: schemes x patterns x rates x hotspot_fracs x burst_duties x
// seeds, at burst_on_mean_cycles and gating.
// Columns: pattern scheme rate [hotspot] [duty] [seed] lat thr
// xbar-mW stby% saved-mW.  Optional axis columns appear only with
// more than one value on that axis.
ReportTable injection_sweep(LainContext& ctx, const ScenarioSpec& spec,
                            const SweepEngine& engine);

// --- E9: crossbar idle-run-length distribution -----------------------------
// Axes: patterns x rates x hotspot_fracs x burst_duties x seeds.
// Columns: pattern rate [hotspot] [duty] [seed] runs mean p50 p95 +
// gateable fraction >= 1/2/3.
ReportTable idle_histogram(LainContext& ctx, const ScenarioSpec& spec,
                           const SweepEngine& engine);

// --- Mesh-vs-torus topology comparison -------------------------------------
// Axes: patterns x radices x rates, for the first of `schemes` at
// `seed` and gating.  One row per (pattern, radix, rate): mesh and
// torus latency, throughput and crossbar power side by side.
ReportTable mesh_vs_torus(LainContext& ctx, const ScenarioSpec& spec,
                          const SweepEngine& engine);

// --- Sharded-kernel node-count scaling -------------------------------------
// Axes: radices x partition_list x sim_thread_list, at the first of
// `rates` and `patterns` and at `seed`.  Times one simulation per
// (radix, partition, shards) on the calling thread (sequentially, so
// wall-clock numbers are not polluted by sibling jobs) and reports the
// plan's boundary-link count, simulated Mcycles/s and Mnode-cycles/s,
// speedup vs the first row of the radix and whether the stats matched
// that row bit-for-bit (they must, for every partition shape).  The
// runs take spec.run's fault schedule but no telemetry, so the
// timings stay clean.
ReportTable mesh_scaling(const ScenarioSpec& spec);

// --- E12: temperature / corner sensitivity ---------------------------------
// Axes: temps_c x schemes.
ReportTable corner_sweep(LainContext& ctx, const ScenarioSpec& spec,
                         const SweepEngine& engine);
// Device-level SS/TT/FF check (1 um NMOS): Ioff, high-Vt Ioff, Ion,
// dual-Vt leakage ratio.
ReportTable corner_device_report();

// --- E11: technology-node scaling ------------------------------------------
// Axes: the 90/65/45 nm nodes x schemes.
ReportTable node_scaling(LainContext& ctx, const ScenarioSpec& spec,
                         const SweepEngine& engine);
// Savings-vs-SC matrix: one row per node, one column per scheme.
ReportTable node_scaling_savings(LainContext& ctx, const ScenarioSpec& spec,
                                 const SweepEngine& engine);

// --- E7: static-probability sweep ------------------------------------------
// Axes: probabilities (empty = 0.1 .. 0.9) x schemes.
ReportTable static_probability(LainContext& ctx, const ScenarioSpec& spec,
                               const SweepEngine& engine);
// Worst-case p per scheme (the Table-1 footnote check).
ReportTable static_probability_worst_case(LainContext& ctx,
                                          const SweepEngine& engine);

// --- E6: Minimum Idle Time breakeven ---------------------------------------
ReportTable breakeven_table(LainContext& ctx, const SweepEngine& engine);
ReportTable breakeven_net_energy(LainContext& ctx, const SweepEngine& engine,
                                 int max_idle = 10);
ReportTable breakeven_policy_check(LainContext& ctx,
                                   int idle_run_cycles = 50);

// --- E5: segmentation ablation ---------------------------------------------
ReportTable segmentation_ablation(LainContext& ctx,
                                  const SweepEngine& engine);

}  // namespace lain::core
