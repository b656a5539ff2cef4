#include "core/metrics.hpp"

#include <atomic>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "core/json.hpp"

namespace lain::telemetry {

// ------------------------------------------------------------- JSON codec

using core::JsonLine;

std::string to_json(const RunManifest& m) {
  const noc::SimConfig& c = m.sim;
  JsonLine line;
  line.str("type", "manifest")
      .str("run", m.run)
      .str("git_rev", m.git_rev)
      .str("scheme", m.scheme)
      .boolean("gating", m.gating)
      .str("topology",
           c.topology == noc::TopologyKind::kMesh ? "mesh" : "torus")
      .num("radix_x", c.radix_x)
      .num("radix_y", c.radix_y)
      .num("vcs", c.vcs)
      .num("vc_depth_flits", c.vc_depth_flits)
      .str("pattern", noc::traffic_name(c.pattern))
      .num("injection_rate", c.injection_rate)
      .num("packet_length_flits", c.packet_length_flits)
      .num("hotspot_fraction", c.hotspot_fraction)
      .num("burst_duty", c.burst_duty)
      .num("burst_on_mean_cycles", c.burst_on_mean_cycles)
      .num("seed", c.seed)
      .num("warmup_cycles", c.warmup_cycles)
      .num("measure_cycles", c.measure_cycles)
      .num("drain_limit_cycles", c.drain_limit_cycles);
  // The fault schedule, under the window records' rule: present only
  // when fault injection is on.
  if (c.fault.enabled()) {
    line.num("fault_links", c.fault.links)
        .num("fault_routers", c.fault.routers)
        .num("fault_at", c.fault.at)
        .num("fault_seed", c.fault.seed)
        .num("fault_repair", c.fault.repair)
        .boolean("allow_partition", c.fault.allow_partition);
  }
  line.num("shards", m.shards)
      .str("partition", noc::partition_name(m.partition))
      .num("boundary_links", m.boundary_links)
      .num("window_cycles", m.window_cycles)
      .num("trace_flits", m.trace_flits);
  return line.done();
}

std::string to_json(const WindowRecord& w) {
  const noc::SimStats& st = w.window.stats;
  JsonLine line;
  line.str("type", "window")
      .str("run", w.run)
      .num("index", w.window.index)
      .num("begin", w.window.begin)
      .num("end", w.window.end)
      .num("packets_injected", st.packets_injected)
      .num("packets_ejected", st.packets_ejected)
      .num("flits_injected", st.flits_injected)
      .num("flits_ejected", st.flits_ejected)
      .num("latency_mean", st.packet_latency.mean())
      .num("latency_min", st.packet_latency.min())
      .num("latency_max", st.packet_latency.max())
      .num("latency_count", st.packet_latency.count())
      .num("latency_p50", st.latency_hist.percentile(0.50))
      .num("latency_p95", st.latency_hist.percentile(0.95))
      .num("network_latency_mean", st.network_latency.mean())
      .num("hops_mean", st.hops.mean())
      .num("throughput", st.throughput_flits_per_node_cycle())
      .num("flits_in_flight", w.flits_in_flight)
      .num("total_energy_j", w.total_energy_j)
      .num("xbar_energy_j", w.xbar_energy_j)
      .num("buffer_energy_j", w.buffer_energy_j)
      .num("arbiter_energy_j", w.arbiter_energy_j)
      .num("link_energy_j", w.link_energy_j)
      .num("standby_cycles", w.standby_cycles)
      .num("realized_saving_j", w.realized_saving_j)
      .num("idle_fast_ticks", w.idle_fast_ticks);
  if (w.fault_columns) {
    line.num("packets_lost", st.packets_lost)
        .num("flits_lost", st.flits_lost)
        .num("packets_retransmitted", st.packets_retransmitted)
        .num("packets_unreachable_dropped", st.packets_unreachable_dropped);
  }
  return line.done();
}

std::string to_json(const FaultRecord& f) {
  return JsonLine()
      .str("type", "fault")
      .str("run", f.run)
      .num("cycle", f.report.at)
      .str("kind", noc::fault_kind_name(f.report.kind))
      .num("node_a", static_cast<std::int64_t>(f.report.node_a))
      .num("node_b", static_cast<std::int64_t>(f.report.node_b))
      .num("packets_lost", f.report.packets_lost)
      .num("flits_purged", f.report.flits_purged)
      .num("retransmits_scheduled", f.report.retransmits_scheduled)
      .num("packets_abandoned", f.report.packets_abandoned)
      .num("unreachable_pairs", f.report.unreachable_pairs)
      .done();
}

std::string to_json(const FlitRecord& f) {
  return JsonLine()
      .str("type", "flit")
      .str("run", f.run)
      .num("cycle", f.event.cycle)
      .num("packet", static_cast<std::uint64_t>(f.event.packet))
      .num("node", static_cast<std::int64_t>(f.event.node))
      .str("kind", noc::flit_trace_kind_name(f.event.kind))
      .num("out_port", static_cast<std::int64_t>(f.event.out_port))
      .done();
}

std::string to_json(const RunSummary& s) {
  const noc::SimStats& st = s.stats;
  const PhaseCounters& t = s.counters;
  JsonLine line;
  line.str("type", "summary")
      .str("run", s.run)
      .num("cycles", s.cycles)
      .str("stepping", s.event_stepping ? "event" : "per_cycle")
      .num("skipped_cycles", s.skipped_cycles)
      .boolean("saturated", s.saturated)
      .boolean("canceled", s.canceled)
      .boolean("aborted_saturated", s.aborted_saturated)
      .num("windows", s.windows)
      .num("packets_injected", st.packets_injected)
      .num("packets_ejected", st.packets_ejected)
      .num("flits_injected", st.flits_injected)
      .num("flits_ejected", st.flits_ejected)
      .num("latency_mean", st.packet_latency.mean())
      .num("throughput", st.throughput_flits_per_node_cycle())
      .num("component_ns", t.component_ns)
      .num("exchange_ns", t.exchange_ns)
      .num("barrier_ns", t.barrier_ns)
      .num("component_calls", t.component_calls)
      .num("exchange_calls", t.exchange_calls)
      .num("channel_ticks", t.channel_ticks)
      .num("idle_fast_ticks", s.idle_fast_ticks)
      .num("cache_lookups", s.cache_lookups)
      .num("cache_hits", s.cache_hits)
      .num("trace_events", s.trace_events)
      .num("trace_dropped", s.trace_dropped);
  if (s.fault_columns) {
    line.boolean("aborted_disconnected", s.aborted_disconnected)
        .num("packets_lost", st.packets_lost)
        .num("flits_lost", st.flits_lost)
        .num("packets_retransmitted", st.packets_retransmitted)
        .num("packets_unreachable_dropped", st.packets_unreachable_dropped)
        .num("unreachable_pairs", s.unreachable_pairs);
  }
  return line.done();
}

// ------------------------------------------------------------------ sinks

JsonlSink::JsonlSink(const std::string& path) {
  if (path.empty() || path == "-") {
    out_ = &std::cout;
    return;
  }
  file_.open(path);
  if (!file_) {
    throw std::runtime_error("cannot open metrics output: " + path);
  }
  out_ = &file_;
}

void JsonlSink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  *out_ << line << '\n';
  out_->flush();
}

void JsonlSink::on_manifest(const RunManifest& m) { write_line(to_json(m)); }
void JsonlSink::on_window(const WindowRecord& w) { write_line(to_json(w)); }
void JsonlSink::on_fault(const FaultRecord& f) { write_line(to_json(f)); }
void JsonlSink::on_flit(const FlitRecord& f) { write_line(to_json(f)); }
void JsonlSink::on_summary(const RunSummary& s) { write_line(to_json(s)); }

void ProgressSink::on_window(const WindowRecord& w) {
  const noc::SimStats& st = w.window.stats;
  std::fprintf(stderr,
               "[%s] window %lld [%lld,%lld) inj %lld ej %lld lat %.2f "
               "thr %.4f inflight %d\n",
               w.run.c_str(), static_cast<long long>(w.window.index),
               static_cast<long long>(w.window.begin),
               static_cast<long long>(w.window.end),
               static_cast<long long>(st.packets_injected),
               static_cast<long long>(st.packets_ejected),
               st.packet_latency.mean(), st.throughput_flits_per_node_cycle(),
               w.flits_in_flight);
}

void ProgressSink::on_fault(const FaultRecord& f) {
  std::fprintf(stderr,
               "[%s] fault @%lld %s node %d/%d: lost %d, retx %d, "
               "abandoned %d, unreachable pairs %lld\n",
               f.run.c_str(), static_cast<long long>(f.report.at),
               noc::fault_kind_name(f.report.kind),
               static_cast<int>(f.report.node_a),
               static_cast<int>(f.report.node_b), f.report.packets_lost,
               f.report.retransmits_scheduled, f.report.packets_abandoned,
               static_cast<long long>(f.report.unreachable_pairs));
}

void ProgressSink::on_summary(const RunSummary& s) {
  std::fprintf(stderr,
               "[%s] done: %lld cycles, %lld windows, %lld pkts, "
               "lat %.2f, thr %.4f%s\n",
               s.run.c_str(), static_cast<long long>(s.cycles),
               static_cast<long long>(s.windows),
               static_cast<long long>(s.stats.packets_ejected),
               s.stats.packet_latency.mean(),
               s.stats.throughput_flits_per_node_cycle(),
               s.canceled            ? " [CANCELED]"
               : s.aborted_saturated ? " [ABORTED]"
               : s.saturated         ? " [SATURATED]"
                                     : "");
}

// --------------------------------------------------------------- streamer

std::string git_describe() {
  // Computed once: the revision cannot change mid-process, and popen
  // is far too expensive per run.  Function-local static keeps the
  // mutable state out of namespace scope (lint: mutable-global).
  static const std::string cached = [] {
    std::string rev;
#if defined(_WIN32)
    return rev;
#else
    FILE* p = ::popen("git describe --always --dirty 2>/dev/null", "r");
    if (p == nullptr) return rev;
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) {
      rev = buf;
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
    }
    ::pclose(p);
    return rev;
#endif
  }();
  return cached;
}

RunManifest make_manifest(const noc::SimKernel& kernel,
                          const std::string& scheme, bool gating,
                          noc::Cycle window_cycles,
                          std::int64_t trace_flits) {
  // Process-unique run ordinal (function-local static: lint-clean and
  // deterministic given call order, unlike a timestamp id).
  static std::atomic<std::int64_t> next_run{0};

  RunManifest m;
  m.run = "run-" + std::to_string(next_run.fetch_add(1));
  m.git_rev = git_describe();
  m.scheme = scheme;
  m.gating = gating;
  m.sim = kernel.network().config();
  m.shards = kernel.num_shards();
  m.partition = kernel.partition().strategy;
  m.boundary_links = kernel.partition().boundary_links;
  m.window_cycles = window_cycles;
  m.trace_flits = trace_flits;
  return m;
}

MetricsStreamer::MetricsStreamer(noc::SimKernel& kernel,
                                 core::PoweredNoc* power, MetricsSink* sink,
                                 RunManifest manifest)
    : kernel_(kernel),
      power_(power),
      sink_(sink),
      manifest_(std::move(manifest)),
      collector_(kernel.num_shards()) {
  kernel_.set_telemetry(&collector_);
  fault_columns_ = kernel_.fault_controller() != nullptr;
  if (fault_columns_) {
    kernel_.set_fault_callback([this](const noc::FaultReport& r) {
      if (sink_ != nullptr) sink_->on_fault(FaultRecord{manifest_.run, r});
    });
  }
  if (manifest_.trace_flits > 0) {
    kernel_.enable_flit_trace(static_cast<std::size_t>(manifest_.trace_flits));
  }
  if (manifest_.window_cycles > 0) {
    kernel_.set_metrics_window(
        manifest_.window_cycles,
        [this](const noc::SimKernel::MetricsWindow& w) { on_window(w); });
  }
  prev_power_ = snapshot_power();
  prev_idle_ticks_ = kernel_.idle_fast_ticks();
  if (sink_ != nullptr) sink_->on_manifest(manifest_);
}

MetricsStreamer::~MetricsStreamer() {
  // The kernel may outlive this streamer; make sure it never touches
  // our collector again.
  kernel_.set_telemetry(nullptr);
  if (fault_columns_) kernel_.set_fault_callback(nullptr);
}

MetricsStreamer::PowerSnapshot MetricsStreamer::snapshot_power() const {
  PowerSnapshot s;
  if (power_ == nullptr) return s;
  s.total = power_->total_energy_j();
  s.xbar = power_->crossbar_energy_j();
  s.buffer = power_->buffer_energy_j();
  s.arbiter = power_->arbiter_energy_j();
  s.link = power_->link_energy_j();
  s.standby_cycles = power_->standby_cycles();
  s.realized_saving_j = power_->realized_standby_saving_j();
  return s;
}

void MetricsStreamer::on_window(const noc::SimKernel::MetricsWindow& w) {
  WindowRecord r;
  r.run = manifest_.run;
  r.window = w;
  r.flits_in_flight = kernel_.network().flits_in_flight();

  // Power columns: deltas of the cumulative per-router accounts,
  // summed in fixed router order on this (the calling) thread —
  // deterministic at any shard count, like the stats columns.
  const PowerSnapshot now = snapshot_power();
  r.total_energy_j = now.total - prev_power_.total;
  r.xbar_energy_j = now.xbar - prev_power_.xbar;
  r.buffer_energy_j = now.buffer - prev_power_.buffer;
  r.arbiter_energy_j = now.arbiter - prev_power_.arbiter;
  r.link_energy_j = now.link - prev_power_.link;
  r.standby_cycles = now.standby_cycles - prev_power_.standby_cycles;
  r.realized_saving_j = now.realized_saving_j - prev_power_.realized_saving_j;
  prev_power_ = now;

  const std::int64_t idle = kernel_.idle_fast_ticks();
  r.idle_fast_ticks = idle - prev_idle_ticks_;
  prev_idle_ticks_ = idle;
  r.fault_columns = fault_columns_;

  ++windows_emitted_;
  if (sink_ != nullptr) sink_->on_window(r);
}

void MetricsStreamer::finish(const noc::SimStats& stats, bool saturated,
                             std::uint64_t cache_lookups,
                             std::uint64_t cache_hits) {
  std::int64_t trace_events = 0;
  if (manifest_.trace_flits > 0 && sink_ != nullptr) {
    for (const noc::FlitTraceEvent& e : kernel_.collect_flit_trace()) {
      sink_->on_flit(FlitRecord{manifest_.run, e});
      ++trace_events;
    }
  }

  RunSummary s;
  s.run = manifest_.run;
  s.cycles = kernel_.now();
  s.event_stepping = kernel_.event_stepping();
  s.skipped_cycles = kernel_.skipped_cycles();
  s.saturated = saturated;
  s.canceled = kernel_.canceled();
  s.aborted_saturated = kernel_.aborted_saturated();
  s.windows = windows_emitted_;
  s.stats = stats;
  s.counters = collector_.totals();
  s.idle_fast_ticks = kernel_.idle_fast_ticks();
  s.cache_lookups = cache_lookups;
  s.cache_hits = cache_hits;
  s.trace_events = trace_events;
  s.trace_dropped = kernel_.flit_trace_dropped();
  s.fault_columns = fault_columns_;
  s.aborted_disconnected = kernel_.aborted_disconnected();
  s.unreachable_pairs = kernel_.unreachable_pairs();
  if (sink_ != nullptr) sink_->on_summary(s);
}

}  // namespace lain::telemetry
