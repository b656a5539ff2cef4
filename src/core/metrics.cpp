#include "core/metrics.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace lain::telemetry {

// ------------------------------------------------------------- JSON codec

namespace {

// Flat one-line JSON builder.  Keys are emitted in call order, so
// every record type has a stable field layout.
class JsonLine {
 public:
  JsonLine() : out_("{") {}

  JsonLine& str(const char* key, const std::string& v) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\":\"";
    for (char c : v) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
    return *this;
  }
  JsonLine& num(const char* key, double v) {
    char buf[64];
    // %.17g: shortest representation that round-trips an IEEE double
    // exactly — the schema's bit-identity contract depends on it.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& num(const char* key, std::int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return raw(key, buf);
  }
  JsonLine& num(const char* key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return raw(key, buf);
  }
  JsonLine& num(const char* key, int v) {
    return num(key, static_cast<std::int64_t>(v));
  }
  JsonLine& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }

  std::string done() { return out_ + "}"; }

 private:
  JsonLine& raw(const char* key, const char* v) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  void sep() {
    if (out_.size() > 1) out_ += ',';
  }
  std::string out_;
};

// Position of `key`'s value in a flat one-line object, or npos.
std::size_t find_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? std::string::npos : at + needle.size();
}

}  // namespace

bool json_number_field(const std::string& line, const std::string& key,
                       double* out) {
  const std::size_t at = find_value(line, key);
  if (at == std::string::npos || at >= line.size()) return false;
  // Booleans are numbers too, for the purposes of the smoke checks.
  if (line.compare(at, 4, "true") == 0) {
    *out = 1.0;
    return true;
  }
  if (line.compare(at, 5, "false") == 0) {
    *out = 0.0;
    return true;
  }
  char* end = nullptr;
  const double v = std::strtod(line.c_str() + at, &end);
  if (end == line.c_str() + at) return false;
  *out = v;
  return true;
}

bool json_string_field(const std::string& line, const std::string& key,
                       std::string* out) {
  std::size_t at = find_value(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') {
    return false;
  }
  ++at;
  std::string v;
  while (at < line.size() && line[at] != '"') {
    if (line[at] == '\\' && at + 1 < line.size()) ++at;
    v += line[at++];
  }
  if (at >= line.size()) return false;  // unterminated
  *out = v;
  return true;
}

std::string to_json(const RunManifest& m) {
  return JsonLine()
      .str("type", "manifest")
      .str("run", m.run)
      .str("git_rev", m.git_rev)
      .str("scheme", m.scheme)
      .boolean("gating", m.gating)
      .str("topology", m.topology)
      .num("radix_x", m.radix_x)
      .num("radix_y", m.radix_y)
      .num("vcs", m.vcs)
      .num("vc_depth_flits", m.vc_depth_flits)
      .num("link_latency", m.link_latency)
      .str("pattern", m.pattern)
      .num("injection_rate", m.injection_rate)
      .num("packet_length_flits", m.packet_length_flits)
      .num("hotspot_fraction", m.hotspot_fraction)
      .num("burst_duty", m.burst_duty)
      .num("seed", m.seed)
      .num("warmup_cycles", static_cast<std::int64_t>(m.warmup_cycles))
      .num("measure_cycles", static_cast<std::int64_t>(m.measure_cycles))
      .num("drain_limit_cycles",
           static_cast<std::int64_t>(m.drain_limit_cycles))
      .num("shards", m.shards)
      .str("partition", m.partition)
      .num("boundary_links", m.boundary_links)
      .num("window_cycles", static_cast<std::int64_t>(m.window_cycles))
      .num("trace_flits", m.trace_flits)
      .done();
}

std::string to_json(const WindowRecord& w) {
  JsonLine line;
  line.str("type", "window")
      .str("run", w.run)
      .num("index", w.index)
      .num("begin", static_cast<std::int64_t>(w.begin))
      .num("end", static_cast<std::int64_t>(w.end))
      .num("packets_injected", w.packets_injected)
      .num("packets_ejected", w.packets_ejected)
      .num("flits_injected", w.flits_injected)
      .num("flits_ejected", w.flits_ejected)
      .num("latency_mean", w.latency_mean)
      .num("latency_min", w.latency_min)
      .num("latency_max", w.latency_max)
      .num("latency_count", w.latency_count)
      .num("latency_p50", w.latency_p50)
      .num("latency_p95", w.latency_p95)
      .num("network_latency_mean", w.network_latency_mean)
      .num("hops_mean", w.hops_mean)
      .num("throughput", w.throughput)
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
    line.num("packets_lost", w.packets_lost)
        .num("flits_lost", w.flits_lost)
        .num("packets_retransmitted", w.packets_retransmitted)
        .num("packets_unreachable_dropped", w.packets_unreachable_dropped);
  }
  return line.done();
}

std::string to_json(const FaultRecord& f) {
  return JsonLine()
      .str("type", "fault")
      .str("run", f.run)
      .num("cycle", static_cast<std::int64_t>(f.report.at))
      .str("kind", noc::fault_kind_name(f.report.kind))
      .num("node_a", static_cast<std::int64_t>(f.report.node_a))
      .num("node_b", static_cast<std::int64_t>(f.report.node_b))
      .num("packets_lost", static_cast<std::int64_t>(f.report.packets_lost))
      .num("flits_purged", static_cast<std::int64_t>(f.report.flits_purged))
      .num("retransmits_scheduled",
           static_cast<std::int64_t>(f.report.retransmits_scheduled))
      .num("packets_abandoned",
           static_cast<std::int64_t>(f.report.packets_abandoned))
      .num("unreachable_pairs", f.report.unreachable_pairs)
      .done();
}

std::string to_json(const FlitRecord& f) {
  return JsonLine()
      .str("type", "flit")
      .str("run", f.run)
      .num("cycle", static_cast<std::int64_t>(f.event.cycle))
      .num("packet", static_cast<std::uint64_t>(f.event.packet))
      .num("node", static_cast<std::int64_t>(f.event.node))
      .str("kind", noc::flit_trace_kind_name(f.event.kind))
      .num("out_port", static_cast<std::int64_t>(f.event.out_port))
      .done();
}

std::string to_json(const RunSummary& s) {
  JsonLine line;
  line.str("type", "summary")
      .str("run", s.run)
      .num("cycles", static_cast<std::int64_t>(s.cycles))
      .str("stepping", s.event_stepping ? "event" : "per_cycle")
      .num("skipped_cycles", s.skipped_cycles)
      .boolean("saturated", s.saturated)
      .boolean("canceled", s.canceled)
      .boolean("aborted_saturated", s.aborted_saturated)
      .num("windows", s.windows)
      .num("packets_injected", s.packets_injected)
      .num("packets_ejected", s.packets_ejected)
      .num("flits_injected", s.flits_injected)
      .num("flits_ejected", s.flits_ejected)
      .num("latency_mean", s.latency_mean)
      .num("throughput", s.throughput)
      .num("component_ns", s.component_ns)
      .num("exchange_ns", s.exchange_ns)
      .num("barrier_ns", s.barrier_ns)
      .num("component_calls", s.component_calls)
      .num("exchange_calls", s.exchange_calls)
      .num("channel_ticks", s.channel_ticks)
      .num("idle_fast_ticks", s.idle_fast_ticks)
      .num("cache_lookups", s.cache_lookups)
      .num("cache_hits", s.cache_hits)
      .num("trace_events", s.trace_events)
      .num("trace_dropped", s.trace_dropped);
  if (s.fault_columns) {
    line.boolean("aborted_disconnected", s.aborted_disconnected)
        .num("packets_lost", s.packets_lost)
        .num("flits_lost", s.flits_lost)
        .num("packets_retransmitted", s.packets_retransmitted)
        .num("packets_unreachable_dropped", s.packets_unreachable_dropped)
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
  std::fprintf(stderr,
               "[%s] window %lld [%lld,%lld) inj %lld ej %lld lat %.2f "
               "thr %.4f inflight %d\n",
               w.run.c_str(), static_cast<long long>(w.index),
               static_cast<long long>(w.begin), static_cast<long long>(w.end),
               static_cast<long long>(w.packets_injected),
               static_cast<long long>(w.packets_ejected), w.latency_mean,
               w.throughput, w.flits_in_flight);
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
               static_cast<long long>(s.packets_ejected), s.latency_mean,
               s.throughput,
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

RunManifest make_manifest(const noc::SimConfig& cfg,
                          const noc::SimKernel& kernel,
                          const std::string& scheme, bool gating,
                          const StreamOptions& opt) {
  // Process-unique run ordinal (function-local static: lint-clean and
  // deterministic given call order, unlike a timestamp id).
  static std::atomic<std::int64_t> next_run{0};

  RunManifest m;
  m.run = "run-" + std::to_string(next_run.fetch_add(1));
  m.git_rev = git_describe();
  m.scheme = scheme;
  m.gating = gating;
  m.topology = cfg.topology == noc::TopologyKind::kMesh ? "mesh" : "torus";
  m.radix_x = cfg.radix_x;
  m.radix_y = cfg.radix_y;
  m.vcs = cfg.vcs;
  m.vc_depth_flits = cfg.vc_depth_flits;
  m.link_latency = cfg.link_latency;
  m.pattern = noc::traffic_name(cfg.pattern);
  m.injection_rate = cfg.injection_rate;
  m.packet_length_flits = cfg.packet_length_flits;
  m.hotspot_fraction = cfg.hotspot_fraction;
  m.burst_duty = cfg.burst_duty;
  m.seed = cfg.seed;
  m.warmup_cycles = cfg.warmup_cycles;
  m.measure_cycles = cfg.measure_cycles;
  m.drain_limit_cycles = cfg.drain_limit_cycles;
  m.shards = kernel.num_shards();
  m.partition = noc::partition_name(kernel.partition().strategy);
  m.boundary_links = kernel.partition().boundary_links;
  m.window_cycles = opt.window_cycles;
  m.trace_flits = opt.trace_flits;
  return m;
}

MetricsStreamer::MetricsStreamer(noc::SimKernel& kernel,
                                 core::PoweredNoc* power, MetricsSink* sink,
                                 const StreamOptions& opt,
                                 RunManifest manifest)
    : kernel_(kernel),
      power_(power),
      sink_(sink),
      opt_(opt),
      manifest_(std::move(manifest)),
      collector_(kernel.num_shards()) {
  kernel_.set_telemetry(&collector_);
  fault_columns_ = kernel_.fault_controller() != nullptr;
  if (fault_columns_) {
    kernel_.set_fault_callback([this](const noc::FaultReport& r) {
      if (sink_ != nullptr) sink_->on_fault(FaultRecord{manifest_.run, r});
    });
  }
  if (opt_.trace_flits > 0) {
    kernel_.enable_flit_trace(static_cast<std::size_t>(opt_.trace_flits));
  }
  if (opt_.window_cycles > 0) {
    kernel_.set_metrics_window(
        opt_.window_cycles,
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
  r.index = w.index;
  r.begin = w.begin;
  r.end = w.end;
  r.packets_injected = w.stats.packets_injected;
  r.packets_ejected = w.stats.packets_ejected;
  r.flits_injected = w.stats.flits_injected;
  r.flits_ejected = w.stats.flits_ejected;
  r.latency_mean = w.stats.packet_latency.mean();
  r.latency_min = w.stats.packet_latency.min();
  r.latency_max = w.stats.packet_latency.max();
  r.latency_count = w.stats.packet_latency.count();
  r.latency_p50 = w.stats.latency_hist.percentile(0.50);
  r.latency_p95 = w.stats.latency_hist.percentile(0.95);
  r.network_latency_mean = w.stats.network_latency.mean();
  r.hops_mean = w.stats.hops.mean();
  r.throughput = w.stats.throughput_flits_per_node_cycle();
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

  if (fault_columns_) {
    r.fault_columns = true;
    r.packets_lost = w.stats.packets_lost;
    r.flits_lost = w.stats.flits_lost;
    r.packets_retransmitted = w.stats.packets_retransmitted;
    r.packets_unreachable_dropped = w.stats.packets_unreachable_dropped;
  }

  ++windows_emitted_;
  if (sink_ != nullptr) sink_->on_window(r);
}

void MetricsStreamer::finish(const noc::SimStats& stats, bool saturated,
                             std::uint64_t cache_lookups,
                             std::uint64_t cache_hits) {
  std::int64_t trace_events = 0;
  if (opt_.trace_flits > 0 && sink_ != nullptr) {
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
  s.packets_injected = stats.packets_injected;
  s.packets_ejected = stats.packets_ejected;
  s.flits_injected = stats.flits_injected;
  s.flits_ejected = stats.flits_ejected;
  s.latency_mean = stats.packet_latency.mean();
  s.throughput = stats.throughput_flits_per_node_cycle();
  const PhaseCounters t = collector_.totals();
  s.component_ns = t.component_ns;
  s.exchange_ns = t.exchange_ns;
  s.barrier_ns = t.barrier_ns;
  s.component_calls = t.component_calls;
  s.exchange_calls = t.exchange_calls;
  s.channel_ticks = t.channel_ticks;
  s.idle_fast_ticks = t.idle_fast_ticks;
  s.cache_lookups = cache_lookups;
  s.cache_hits = cache_hits;
  s.trace_events = trace_events;
  s.trace_dropped = kernel_.flit_trace_dropped();
  if (fault_columns_) {
    s.fault_columns = true;
    s.aborted_disconnected = kernel_.aborted_disconnected();
    s.packets_lost = stats.packets_lost;
    s.flits_lost = stats.flits_lost;
    s.packets_retransmitted = stats.packets_retransmitted;
    s.packets_unreachable_dropped = stats.packets_unreachable_dropped;
    s.unreachable_pairs = kernel_.unreachable_pairs();
  }
  if (sink_ != nullptr) sink_->on_summary(s);
}

}  // namespace lain::telemetry
