#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "noc/topology.hpp"
#include "noc/traffic.hpp"

namespace perfbench {

namespace noc = lain::noc;
namespace core = lain::core;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t clock_overhead_ns() {
  static const std::int64_t overhead = [] {
    std::vector<std::int64_t> d(2001);
    for (auto& x : d) {
      const std::int64_t t0 = now_ns();
      x = now_ns() - t0;
    }
    std::nth_element(d.begin(), d.begin() + 1000, d.end());
    return d[1000];
  }();
  return overhead;
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void acc(const noc::Accumulator& a) {
    i64(a.count());
    f64(a.mean());
    f64(a.min());
    f64(a.max());
    f64(a.variance());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// RouterPowerHook behind a decorator that counts its calls and times
// one in eight: a clock read costs about as much as the call itself.
struct HookCounters {
  std::int64_t calls = 0;
  std::int64_t sampled = 0;
  std::int64_t sampled_ns = 0;
};

class TimedHook final : public noc::PowerHook {
 public:
  TimedHook(const core::NocPowerConfig& cfg,
            const lain::xbar::Characterization& chars, HookCounters* counters,
            std::int64_t clock_overhead)
      : inner_(cfg, chars), c_(counters), overhead_(clock_overhead) {}

  bool xbar_ready() override { return inner_.xbar_ready(); }
  void on_cycle(const noc::RouterEvents& ev) override {
    if ((c_->calls++ & 7) != 0) {
      inner_.on_cycle(ev);
      return;
    }
    const std::int64_t t0 = now_ns();
    inner_.on_cycle(ev);
    c_->sampled_ns += std::max<std::int64_t>(0, now_ns() - t0 - overhead_);
    ++c_->sampled;
  }
  void on_idle_cycles(std::int64_t n) override {
    c_->calls += n;
    inner_.on_idle_cycles(n);
  }
  const core::RouterPowerHook& inner() const { return inner_; }

 private:
  core::RouterPowerHook inner_;
  HookCounters* c_;
  std::int64_t overhead_;
};

void record_ejection(noc::SimStats& st, const noc::Nic::Ejection& e,
                     int packet_length_flits) {
  ++st.packets_ejected;
  st.flits_ejected += packet_length_flits;
  st.packet_latency.add(static_cast<double>(e.ejected - e.created));
  st.network_latency.add(static_cast<double>(e.ejected - e.injected));
  st.hops.add(static_cast<double>(e.hops));
  st.latency_hist.add(e.ejected - e.created);
}

}  // namespace

std::uint64_t digest(const MeshOutputs& o) {
  Fnv h;
  const noc::SimStats& s = o.stats;
  for (std::int64_t v :
       {s.packets_injected, s.packets_ejected, s.flits_injected,
        s.flits_ejected, s.packets_lost, s.flits_lost, s.packets_retransmitted,
        s.packets_unreachable_dropped, s.measured_cycles,
        static_cast<std::int64_t>(s.num_nodes)}) {
    h.i64(v);
  }
  h.acc(s.packet_latency);
  h.acc(s.network_latency);
  h.acc(s.hops);
  for (const auto& [value, count] : s.latency_hist.bins()) {
    h.i64(value);
    h.i64(count);
  }
  h.i64(o.saturated ? 1 : 0);
  h.i64(o.cycles);
  for (double v : {o.network_power_w, o.crossbar_power_w, o.standby_fraction,
                   o.realized_saving_w}) {
    h.f64(v);
  }
  for (std::int64_t v : {o.standby_cycles, o.power_cycles, o.flit_hops,
                         o.sleep_transitions}) {
    h.i64(v);
  }
  return h.value();
}

std::string check_mesh(const MeshOutputs& o) {
  const noc::SimStats& s = o.stats;
  if (o.saturated) return "saturated: drain limit reached";
  if (s.packets_injected <= 0) return "no packets injected";
  if (s.flits_injected != s.flits_ejected) return "flits injected != ejected";
  if (s.packets_injected != s.packets_ejected) {
    return "packets injected != ejected";
  }
  if (s.packets_lost != 0 || s.flits_lost != 0) return "packets lost";
  for (double v : {o.network_power_w, o.crossbar_power_w}) {
    if (!std::isfinite(v) || v <= 0.0) return "power column not positive";
  }
  if (!std::isfinite(o.realized_saving_w) || o.realized_saving_w < 0.0) {
    return "standby saving not finite";
  }
  if (!(o.standby_fraction >= 0.0 && o.standby_fraction <= 1.0)) {
    return "standby fraction outside [0, 1]";
  }
  if (!std::isfinite(s.packet_latency.mean()) ||
      s.packet_latency.mean() <= 0.0) {
    return "latency not positive";
  }
  return {};
}

const char* layer_name(int layer) {
  static const char* const kNames[kNumLayers] = {
      "traffic", "nic", "router_idle", "router_busy", "eject", "channel"};
  return kNames[layer];
}

MeshOutputs replay_serial(const noc::SimConfig& cfg,
                          const core::NocPowerConfig& pcfg,
                          const lain::xbar::Characterization& chars,
                          ReplayProfile& prof) {
  const std::int64_t overhead = clock_overhead_ns();
  noc::Network net(cfg);
  noc::TrafficGenerator gen(cfg);
  const int nodes = cfg.num_nodes();
  const int links = net.num_links();
  // One router in kWrapEvery carries the timing decorator; the rest
  // hold the plain hook, so the decorator's own call cost barely
  // touches the router spans.
  constexpr int kWrapEvery = 8;
  HookCounters hc;
  std::vector<std::unique_ptr<core::RouterPowerHook>> plain(
      static_cast<std::size_t>(nodes));
  std::vector<std::unique_ptr<TimedHook>> timed(
      static_cast<std::size_t>(nodes));
  for (noc::NodeId n = 0; n < nodes; ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (n % kWrapEvery == 0) {
      timed[i] = std::make_unique<TimedHook>(pcfg, chars, &hc, overhead);
      net.router(n).set_power_hook(timed[i].get());
    } else {
      plain[i] = std::make_unique<core::RouterPowerHook>(pcfg, chars);
      net.router(n).set_power_hook(plain[i].get());
    }
  }
  std::vector<noc::PacketId> seq(static_cast<std::size_t>(nodes), 0);
  std::vector<noc::NodeId> busy(static_cast<std::size_t>(nodes));

  const noc::Cycle measure_start = cfg.warmup_cycles;
  const noc::Cycle measure_end = cfg.warmup_cycles + cfg.measure_cycles;
  const noc::Cycle hard_limit = measure_end + cfg.drain_limit_cycles;
  const int len = cfg.packet_length_flits;

  MeshOutputs out;
  noc::SimStats& st = out.stats;
  std::int64_t pending = 0;
  std::vector<Span> spans;
  spans.reserve(static_cast<std::size_t>(measure_end + 256) * kNumLayers);

  const std::int64_t base = now_ns();
  noc::Cycle now = 0;
  auto close = [&](int layer, std::int64_t& t) {
    const std::int64_t t1 = now_ns();
    spans.push_back({now, layer, t - base, t1 - base});
    prof.layer_ns[layer] += std::max<std::int64_t>(0, t1 - t - overhead);
    t = t1;
  };
  while (true) {
    const bool injecting = now < measure_end;
    const bool in_window = now >= measure_start && now < measure_end;
    std::int64_t t = now_ns();
    if (injecting) {
      for (noc::NodeId n = 0; n < nodes; ++n) {
        const noc::NodeId dst = gen.maybe_generate(n);
        if (dst == noc::kInvalidNode) continue;
        const noc::PacketId id = (static_cast<noc::PacketId>(n) << 32) |
                                 seq[static_cast<std::size_t>(n)]++;
        net.nic(n).source_packet(dst, now, id);
        if (in_window) {
          ++st.packets_injected;
          st.flits_injected += len;
          ++pending;
        }
      }
    }
    close(kTraffic, t);
    for (noc::NodeId n = 0; n < nodes; ++n) net.nic(n).tick(now);
    close(kNic, t);
    std::size_t nbusy = 0;
    for (noc::NodeId n = 0; n < nodes; ++n) {
      noc::Router& r = net.router(n);
      if (cfg.enable_idle_fastpath && r.quiescent()) {
        r.tick_idle();
      } else {
        busy[nbusy++] = n;
      }
    }
    close(kRouterIdle, t);
    for (std::size_t i = 0; i < nbusy; ++i) net.router(busy[i]).tick();
    close(kRouterBusy, t);
    for (noc::NodeId n = 0; n < nodes; ++n) {
      for (const noc::Nic::Ejection& e : net.nic(n).completions()) {
        if (e.created < measure_start || e.created >= measure_end) continue;
        --pending;
        record_ejection(st, e, len);
      }
    }
    close(kEject, t);
    for (int li = 0; li < links; ++li) net.tick_link(li);
    close(kChannel, t);
    prof.router_busy_calls += static_cast<std::int64_t>(nbusy);
    prof.router_idle_calls += nodes - static_cast<std::int64_t>(nbusy);
    ++now;
    if (now >= measure_end && pending == 0) break;
    if (now >= hard_limit) {
      out.saturated = true;
      break;
    }
  }
  st.num_nodes = nodes;
  st.measured_cycles = cfg.measure_cycles;
  out.cycles = now;
  fill_power(out, nodes, pcfg.xbar_spec.freq_hz,
             [&](int i) -> const core::RouterPowerHook& {
               const auto k = static_cast<std::size_t>(i);
               return timed[k] ? timed[k]->inner() : *plain[k];
             });
  prof.link_ticks += static_cast<std::int64_t>(links) * now;
  prof.node_cycles += static_cast<std::int64_t>(nodes) * now;
  prof.hook_sampled += hc.sampled;
  prof.hook_sampled_ns += hc.sampled_ns;
  prof.spans = std::move(spans);
  return out;
}

bool write_spans(const std::string& path, const ReplayProfile& prof) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "cycle,layer,start_ns,end_ns\n");
  for (const Span& s : prof.spans) {
    std::fprintf(f, "%lld,%s,%lld,%lld\n", static_cast<long long>(s.cycle),
                 layer_name(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
