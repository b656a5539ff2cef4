#include "core/context.hpp"

#include <optional>
#include <tuple>

#include "core/metrics.hpp"
#include "noc/parallel/sharded_sim.hpp"

namespace lain::core {

namespace {

// spec_tie must enumerate EVERY field of CrossbarSpec and
// DeviceSizing: a missed field would silently alias distinct specs to
// one cache entry.  The size tripwires below break the build here
// when either struct grows — extend the tuple, then update the sizes
// (x86-64 layout: 12 doubles; 2 ints + 3 doubles + 2 enums + sizing).
static_assert(sizeof(xbar::DeviceSizing) == 12 * sizeof(double),
              "DeviceSizing changed: update spec_tie()");
static_assert(sizeof(xbar::CrossbarSpec) ==
                  sizeof(xbar::DeviceSizing) + 5 * sizeof(double),
              "CrossbarSpec changed: update spec_tie()");

auto spec_tie(const xbar::CrossbarSpec& s) {
  const xbar::DeviceSizing& z = s.sizing;
  return std::make_tuple(
      s.ports, s.flit_bits, s.freq_hz, s.static_probability,
      static_cast<int>(s.node), static_cast<int>(s.tier), s.temp_k,
      z.pass_width_m, z.drv1_wn_m, z.drv1_wp_m, z.drv2_wn_m, z.drv2_wp_m,
      z.keeper_width_m, z.sleep_width_m, z.precharge_width_m,
      z.precharge_seg_width_m, z.input_drv_wn_m, z.input_drv_wp_m,
      z.segment_switch_width_m);
}

// Kernel the options ask for: serial for sim_threads == 1, sharded
// otherwise (auto-sharded when <= 0), with the sharded kernel's extra
// worker lanes leased from the context's thread budget.
std::unique_ptr<noc::SimKernel> make_kernel(noc::SimConfig cfg,
                                            const RunOptions& run,
                                            ThreadBudget* budget) {
  const noc::ShardedOptions opt = apply_run_options(run, cfg, budget);
  if (run.sim_threads == 1) return std::make_unique<noc::Simulation>(cfg);
  return std::make_unique<noc::ShardedSimulation>(cfg, opt);
}

// Attaches the run's telemetry per TelemetryOptions: with a sink, a
// full MetricsStreamer (manifest + windows + trace + summary); with
// only a window, the kernel-side window machinery (so observer
// slices still flush at boundaries).  Returns the streamer so the
// caller can finish() it.
std::optional<telemetry::MetricsStreamer> attach_telemetry(
    noc::SimKernel& kernel, PoweredNoc* power, const noc::SimConfig& cfg,
    const std::string& scheme, bool gating, const TelemetryOptions& t) {
  telemetry::StreamOptions opt;
  opt.window_cycles = t.metrics_window;
  opt.trace_flits = t.trace_flits;
  if (t.sink != nullptr) {
    return std::optional<telemetry::MetricsStreamer>(
        std::in_place, kernel, power, t.sink, opt,
        telemetry::make_manifest(cfg, kernel, scheme, gating, opt));
  }
  if (t.metrics_window > 0) kernel.set_metrics_window(t.metrics_window);
  if (t.trace_flits > 0) {
    kernel.enable_flit_trace(static_cast<std::size_t>(t.trace_flits));
  }
  return std::nullopt;
}

// Installs the run-lifecycle control (cancel + saturation guard) per
// TelemetryOptions.  Both verdicts are functions of the window series
// and the cancel flag only — no clocks — so a control that never
// fires leaves the run bit-identical.  Controls act at window
// boundaries; with metrics_window == 0 there are none and the hook is
// never consulted.
void install_window_control(noc::SimKernel& kernel,
                            const TelemetryOptions& t) {
  if (t.cancel == nullptr && t.abort_latency_mult <= 0.0 &&
      !t.abort_on_disconnect) {
    return;
  }
  const std::atomic<bool>* cancel = t.cancel;
  const double mult = t.abort_latency_mult;
  const bool abort_disconnect = t.abort_on_disconnect;
  // The disconnect guard reads the kernel's post-fault routing state;
  // the control hook is only invoked between windows on the kernel's
  // own run loop, so the reference stays valid and race-free.
  noc::SimKernel* k = &kernel;
  // Zero-load latency reference: the first closed window that ejected
  // packets.  Early windows see near-zero-load latency even on runs
  // that later saturate, because congestion builds over time.
  double reference = 0.0;
  kernel.set_window_control(
      [cancel, mult, abort_disconnect, k,
       reference](const noc::SimKernel::MetricsWindow& w) mutable {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          return noc::SimKernel::WindowVerdict::kCancel;
        }
        if (abort_disconnect && k->unreachable_pairs() > 0) {
          return noc::SimKernel::WindowVerdict::kAbortDisconnected;
        }
        if (mult > 0.0 && w.stats.packet_latency.count() > 0) {
          const double mean = w.stats.packet_latency.mean();
          if (reference <= 0.0) {
            reference = mean;
          } else if (mean > mult * reference) {
            return noc::SimKernel::WindowVerdict::kAbortSaturated;
          }
        }
        return noc::SimKernel::WindowVerdict::kContinue;
      });
}

// Runs `kernel` under the run's telemetry and lifecycle controls and
// returns its stats.  A cancel flag already set skips the run, which
// then reports canceled with empty stats.
noc::SimStats run_observed(noc::SimKernel& kernel, PoweredNoc* power,
                           const noc::SimConfig& cfg,
                           const std::string& scheme, bool gating,
                           const TelemetryOptions& t,
                           const CharacterizationCache& cache) {
  std::optional<telemetry::MetricsStreamer> streamer =
      attach_telemetry(kernel, power, cfg, scheme, gating, t);
  install_window_control(kernel, t);
  noc::SimStats stats;
  if (t.cancel != nullptr && t.cancel->load(std::memory_order_relaxed)) {
    kernel.mark_canceled();
  } else {
    stats = kernel.run();
  }
  if (streamer) {
    streamer->finish(stats, kernel.saturated(), cache.lookups(),
                     cache.hits());
  }
  return stats;
}

}  // namespace

bool CharacterizationCache::KeyLess::operator()(
    const std::pair<xbar::CrossbarSpec, xbar::Scheme>& a,
    const std::pair<xbar::CrossbarSpec, xbar::Scheme>& b) const {
  if (a.second != b.second) return a.second < b.second;
  return spec_tie(a.first) < spec_tie(b.first);
}

const xbar::Characterization& CharacterizationCache::get(
    const xbar::CrossbarSpec& spec, xbar::Scheme scheme) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const auto key = std::make_pair(spec, scheme);

  Entry* entry = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) entry = it->second.get();
  }
  if (!entry) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(key, std::make_unique<Entry>()).first;
    }
    entry = it->second.get();
  }

  // Outside the map locks: the first caller per key characterizes,
  // concurrent callers for the same key block until it is done.  A
  // throwing characterize leaves the flag unset, so the next caller
  // retries instead of seeing a half-built value.
  std::call_once(entry->once, [&] {
    entry->value = xbar::characterize(spec, scheme);
    characterizations_.fetch_add(1, std::memory_order_relaxed);
  });
  return entry->value;
}

std::size_t CharacterizationCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

noc::ShardedOptions apply_run_options(const RunOptions& run,
                                      noc::SimConfig& cfg,
                                      ThreadBudget* budget) {
  cfg.fault = run.fault;
  noc::ShardedOptions opt;
  opt.shards = run.sim_threads;
  opt.partition = run.partition;
  opt.pin_threads = run.pin_threads;
  opt.budget = budget;
  return opt;
}

LainContext::LainContext(const ContextOptions& opt)
    : budget_(opt.thread_budget) {}

LainContext& LainContext::global() {
  static LainContext* ctx = new LainContext();
  return *ctx;
}

NocRunResult LainContext::run_noc(const NocRunSpec& spec) {
  std::unique_ptr<noc::SimKernel> kernel =
      make_kernel(spec.sim, spec, &budget_);
  noc::Network& net = kernel->network();
  const NocPowerConfig pcfg =
      default_noc_power(spec.scheme, spec.enable_gating);
  PoweredNoc powered(net, pcfg,
                     characterization(pcfg.xbar_spec, pcfg.scheme));
  const noc::SimStats stats = run_observed(
      *kernel, &powered, spec.sim,
      std::string(xbar::scheme_name(spec.scheme)), spec.enable_gating,
      spec.telemetry, cache_);

  NocRunResult r;
  r.scheme = spec.scheme;
  r.injection_rate = spec.sim.injection_rate;
  r.pattern = spec.sim.pattern;
  r.avg_packet_latency_cycles = stats.packet_latency.mean();
  r.throughput_flits_node_cycle = stats.throughput_flits_per_node_cycle();
  r.network_power_w = powered.average_power_w();
  r.crossbar_power_w = powered.crossbar_average_power_w();
  const auto cycles = powered.total_cycles();
  r.standby_fraction =
      cycles ? static_cast<double>(powered.standby_cycles()) / cycles : 0.0;
  const double seconds =
      cycles ? static_cast<double>(cycles) /
                   static_cast<double>(net.num_nodes()) /
                   powered.config().xbar_spec.freq_hz
             : 0.0;
  r.realized_saving_w =
      seconds > 0.0 ? powered.realized_standby_saving_j() / seconds : 0.0;
  r.saturated = kernel->saturated();
  r.canceled = kernel->canceled();
  r.aborted_saturated = kernel->aborted_saturated();
  r.packets_lost = stats.packets_lost;
  r.packets_retransmitted = stats.packets_retransmitted;
  r.packets_unreachable_dropped = stats.packets_unreachable_dropped;
  r.unreachable_pairs = kernel->unreachable_pairs();
  r.aborted_disconnected = kernel->aborted_disconnected();
  return r;
}

noc::Histogram LainContext::idle_histogram(const noc::SimConfig& cfg,
                                           const RunOptions& run) {
  std::unique_ptr<noc::SimKernel> kernel = make_kernel(cfg, run, &budget_);
  run_observed(*kernel, /*power=*/nullptr, cfg, /*scheme=*/"",
               /*gating=*/false, run.telemetry, cache_);
  noc::Network& net = kernel->network();
  noc::Histogram merged;
  for (noc::NodeId n = 0; n < net.num_nodes(); ++n) {
    merged.merge(net.router(n).activity().idle_runs());
  }
  return merged;
}

}  // namespace lain::core
