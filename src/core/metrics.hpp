// metrics.hpp — structured emission for the streaming telemetry
// layer.
//
// A run that streams metrics emits, in order, onto a MetricsSink:
//
//   1 x manifest   — the full run identity: config, seed, partition,
//                    git revision, window/trace settings,
//   N x window     — one record per closed metrics window
//                    (SimKernel::MetricsWindow + per-window power
//                    deltas + live in-flight count),
//   F x fault      — one record per applied fault event (only when
//                    fault injection is enabled), emitted between
//                    window records at the cycle the surgery ran,
//   M x flit       — the retained flit-trace events (only with
//                    --trace-flits),
//   1 x summary    — end-of-run totals plus the kernel profiling
//                    counters (lain::telemetry::Collector) and the
//                    characterization-cache hit counters.
//
// The records carry the kernel's own structs (SimConfig, the
// MetricsWindow, SimStats, PhaseCounters) rather than copies of their
// fields: each JSONL column is derived and named once, in its record's
// to_json, so a new column is a struct field plus one to_json line.
//
// Sinks: JsonlSink writes one JSON object per line (the documented
// schema; see README "Observability") through the core/json.hpp codec,
// ProgressSink prints a human one-liner per window on stderr,
// MemorySink captures records for tests, MultiSink fans out to
// several.  The JSONL schema round-trips doubles exactly (%.17g) so
// downstream tools can diff runs bit-for-bit — the same contract the
// windowed stats themselves obey.
//
// MetricsStreamer is the glue: attach it to a kernel (and optionally
// a PoweredNoc) before run(), call finish() after, and every record
// above flows to the sink.  All emission happens on the calling
// thread, between steps — never inside a shard phase.

#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/noc_integration.hpp"
#include "core/telemetry.hpp"
#include "noc/kernel.hpp"

namespace lain::telemetry {

// ---------------------------------------------------------------- records

// Run identity, emitted once before any window: the kernel's config
// plus what the run resolved around it.
struct RunManifest {
  std::string run;        // unique-within-process run id ("run-3")
  std::string git_rev;    // `git describe --always --dirty`, or ""
  std::string scheme;     // crossbar scheme name, "" for unpowered runs
  bool gating = false;
  noc::SimConfig sim;
  int shards = 1;
  noc::PartitionStrategy partition = noc::PartitionStrategy::kAuto;
  int boundary_links = 0;
  noc::Cycle window_cycles = 0;  // 0: no window records
  std::int64_t trace_flits = 0;  // per-shard ring capacity; 0: no trace
};

// One closed metrics window.  The window's stats columns are bit-
// identical at any shard count; the power columns are per-window
// deltas of the cumulative PoweredNoc accounts (zero when the run has
// no power model attached); flits_in_flight is the live occupancy
// sampled at the window boundary.
struct WindowRecord {
  std::string run;
  noc::SimKernel::MetricsWindow window;
  int flits_in_flight = 0;
  // Power deltas over this window (all zero without a power model).
  double total_energy_j = 0.0;
  double xbar_energy_j = 0.0;
  double buffer_energy_j = 0.0;
  double arbiter_energy_j = 0.0;
  double link_energy_j = 0.0;
  std::int64_t standby_cycles = 0;
  double realized_saving_j = 0.0;
  // Kernel observability (not part of the determinism contract).
  std::int64_t idle_fast_ticks = 0;
  // Degradation columns (fault injection) from the window's stats.
  // Serialized only when `fault_columns` is set — a faults-off run's
  // JSONL stream stays byte-identical to pre-fault builds.
  bool fault_columns = false;
};

// End-of-run totals + host profiling counters.
struct RunSummary {
  std::string run;
  noc::Cycle cycles = 0;  // kernel cycles actually stepped
  // The stepping the kernel chose (SimKernel::event_stepping), emitted
  // as "event" or "per_cycle", and the cycles it jumped.  Observability
  // only, like the profiling counters.
  bool event_stepping = false;
  std::int64_t skipped_cycles = 0;
  bool saturated = false;
  // Run-lifecycle controls (SimKernel::set_window_control): the run
  // was stopped at a window boundary by a cancel request / by the
  // saturation guard.  Both false for a run that completed normally.
  bool canceled = false;
  bool aborted_saturated = false;
  std::int64_t windows = 0;
  noc::SimStats stats;  // the value kernel.run() returned
  // lain::telemetry::Collector totals (all zero when LAIN_TELEMETRY=0
  // or no collector was attached).
  PhaseCounters counters;
  std::int64_t idle_fast_ticks = 0;  // SimKernel::idle_fast_ticks()
  // LainContext characterization-cache counters.
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  // Flit-trace accounting.
  std::int64_t trace_events = 0;
  std::int64_t trace_dropped = 0;
  // Degradation totals (fault injection), the stats' loss counters
  // plus these.  Serialized only when `fault_columns` is set, like the
  // window columns.
  bool fault_columns = false;
  bool aborted_disconnected = false;
  std::int64_t unreachable_pairs = 0;
};

// One retained flit-trace event.
struct FlitRecord {
  std::string run;
  noc::FlitTraceEvent event;
};

// One applied fault event (fault injection only): what died or was
// repaired, and what the reconfiguration surgery did about it.
struct FaultRecord {
  std::string run;
  noc::FaultReport report;
};

// ------------------------------------------------------------------ sinks

// Receives the record stream.  All callbacks run on the simulation's
// calling thread, in emission order; defaults ignore everything so a
// sink overrides only what it wants.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void on_manifest(const RunManifest& m) { (void)m; }
  virtual void on_window(const WindowRecord& w) { (void)w; }
  virtual void on_fault(const FaultRecord& f) { (void)f; }
  virtual void on_flit(const FlitRecord& f) { (void)f; }
  virtual void on_summary(const RunSummary& s) { (void)s; }
};

// Captures everything; for tests and in-process consumers.
class MemorySink final : public MetricsSink {
 public:
  void on_manifest(const RunManifest& m) override { manifests.push_back(m); }
  void on_window(const WindowRecord& w) override { windows.push_back(w); }
  void on_fault(const FaultRecord& f) override { faults.push_back(f); }
  void on_flit(const FlitRecord& f) override { flits.push_back(f); }
  void on_summary(const RunSummary& s) override { summaries.push_back(s); }

  std::vector<RunManifest> manifests;
  std::vector<WindowRecord> windows;
  std::vector<FaultRecord> faults;
  std::vector<FlitRecord> flits;
  std::vector<RunSummary> summaries;
};

// One JSON object per line ("-" writes to stdout).  Throws
// std::runtime_error when the file cannot be opened; each record is
// flushed as it is written so a crashed run keeps its stream.  Lines
// are written under a mutex, so several concurrent runs (a parallel
// sweep) can share one sink — records interleave whole-line and
// demultiplex by their "run" field.
class JsonlSink final : public MetricsSink {
 public:
  explicit JsonlSink(const std::string& path);
  void on_manifest(const RunManifest& m) override;
  void on_window(const WindowRecord& w) override;
  void on_fault(const FaultRecord& f) override;
  void on_flit(const FlitRecord& f) override;
  void on_summary(const RunSummary& s) override;

 private:
  void write_line(const std::string& line);
  std::mutex mu_;
  std::ofstream file_;
  std::ostream* out_;  // &file_ or &std::cout
};

// Human progress: one stderr line per window, one at end of run.
class ProgressSink final : public MetricsSink {
 public:
  void on_window(const WindowRecord& w) override;
  void on_fault(const FaultRecord& f) override;
  void on_summary(const RunSummary& s) override;
};

// Fans every record out to each added sink, in add() order.
class MultiSink final : public MetricsSink {
 public:
  void add(MetricsSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  std::size_t size() const { return sinks_.size(); }
  void on_manifest(const RunManifest& m) override {
    for (MetricsSink* s : sinks_) s->on_manifest(m);
  }
  void on_window(const WindowRecord& w) override {
    for (MetricsSink* s : sinks_) s->on_window(w);
  }
  void on_fault(const FaultRecord& f) override {
    for (MetricsSink* s : sinks_) s->on_fault(f);
  }
  void on_flit(const FlitRecord& f) override {
    for (MetricsSink* s : sinks_) s->on_flit(f);
  }
  void on_summary(const RunSummary& s) override {
    for (MetricsSink* k : sinks_) k->on_summary(s);
  }

 private:
  std::vector<MetricsSink*> sinks_;
};

// ------------------------------------------------------------- JSON codec

// One-line JSON encodings through core::JsonLine ("type" discriminator
// first; doubles as %.17g so values round-trip exactly).  Each column
// is named here and nowhere else.
std::string to_json(const RunManifest& m);
std::string to_json(const WindowRecord& w);
std::string to_json(const FaultRecord& f);
std::string to_json(const FlitRecord& f);
std::string to_json(const RunSummary& s);

// --------------------------------------------------------------- streamer

// `git describe --always --dirty` of the working tree, "" when
// unavailable (not a checkout, no git binary).  Computed once per
// process.
std::string git_describe();

// Fills a manifest from the configuration the kernel runs, run options
// (the fault schedule) included.  `scheme` is the crossbar scheme name
// ("" for unpowered runs).
RunManifest make_manifest(const noc::SimKernel& kernel,
                          const std::string& scheme, bool gating,
                          noc::Cycle window_cycles,
                          std::int64_t trace_flits);

// Streams one kernel run onto a sink.  Construct after the kernel
// (and power model, if any) exist and before run(); call finish()
// once after run().  The constructor emits the manifest, installs the
// window callback the manifest's window_cycles asks for, attaches the
// profiling collector and sizes the flit-trace rings to its
// trace_flits; window records then flow during run() from the calling
// thread.
class MetricsStreamer {
 public:
  MetricsStreamer(noc::SimKernel& kernel, core::PoweredNoc* power,
                  MetricsSink* sink, RunManifest manifest);
  ~MetricsStreamer();
  MetricsStreamer(const MetricsStreamer&) = delete;
  MetricsStreamer& operator=(const MetricsStreamer&) = delete;

  // Emits the flit trace (if any) and the run summary.  `stats` is
  // the value returned by kernel.run(); the cache counters come from
  // the LainContext (pass zeros when there is none).
  void finish(const noc::SimStats& stats, bool saturated,
              std::uint64_t cache_lookups = 0, std::uint64_t cache_hits = 0);

 private:
  struct PowerSnapshot {
    double total = 0.0, xbar = 0.0, buffer = 0.0, arbiter = 0.0, link = 0.0;
    std::int64_t standby_cycles = 0;
    double realized_saving_j = 0.0;
  };
  PowerSnapshot snapshot_power() const;
  void on_window(const noc::SimKernel::MetricsWindow& w);

  noc::SimKernel& kernel_;
  core::PoweredNoc* power_;
  MetricsSink* sink_;
  RunManifest manifest_;
  Collector collector_;
  PowerSnapshot prev_power_;
  std::int64_t prev_idle_ticks_ = 0;
  std::int64_t windows_emitted_ = 0;
  // Set when the kernel runs with fault injection: fault records flow
  // to the sink and the window/summary degradation columns are
  // serialized.  False keeps the stream byte-identical to a
  // pre-fault-layer build.
  bool fault_columns_ = false;
};

}  // namespace lain::telemetry
