// replay.hpp — simulated outputs of one powered mesh run, and a traced
// replay of the serial kernel that attributes host time to the layers
// a cycle passes through.
//
// The replay drives the public fabric pieces (Network, TrafficGenerator,
// Nic, Router, Network::tick_link) through the serial kernel's per-cycle
// phase order, with the RouterPowerHook of one router in eight wrapped
// in a timing decorator installed through Router::set_power_hook.  Each
// phase loop of each cycle is one span; the spans stay in memory and are
// written out after the run.  Its simulated outputs must digest-equal
// the kernel's for the same configuration, which lainbench.cpp checks.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/noc_integration.hpp"
#include "noc/stats.hpp"

namespace perfbench {

// Monotonic host clock in nanoseconds.
std::int64_t now_ns();

// Cost of an empty span (two back-to-back clock reads), measured once;
// subtracted from every span and sampled call.
std::int64_t clock_overhead_ns();

// Everything a powered run simulates, from either engine.  Power
// columns are derived exactly as LainContext::run_noc derives them.
struct MeshOutputs {
  lain::noc::SimStats stats;
  bool saturated = false;
  std::int64_t cycles = 0;  // simulated cycles: warmup + measure + drain
  double network_power_w = 0.0;
  double crossbar_power_w = 0.0;
  double standby_fraction = 0.0;
  double realized_saving_w = 0.0;
  std::int64_t standby_cycles = 0;
  std::int64_t power_cycles = 0;       // router-cycles seen by the hooks
  std::int64_t flit_hops = 0;          // crossbar traversals, all routers
  std::int64_t sleep_transitions = 0;  // sleep-controller state changes
};

// Folds the per-router power accounts into `out`, in node order (the
// order PoweredNoc sums them in, so the doubles are bit-identical).
// `hook_at(i)` returns router i's RouterPowerHook.
template <class HookAt>
void fill_power(MeshOutputs& out, int nodes, double freq_hz, HookAt hook_at) {
  double power_w = 0.0;
  double xbar_w = 0.0;
  double saving_j = 0.0;
  for (int i = 0; i < nodes; ++i) {
    const lain::power::RouterPower& rp = hook_at(i).power();
    power_w += rp.average_power_w();
    xbar_w += rp.crossbar().average_power_w();
    const auto& ctl = rp.crossbar().controller();
    saving_j += ctl.realized_saving_j();
    out.standby_cycles += ctl.standby_cycles();
    out.power_cycles += ctl.cycles();
    out.sleep_transitions += ctl.transitions();
    out.flit_hops += rp.crossbar().traversals();
  }
  out.network_power_w = power_w;
  out.crossbar_power_w = xbar_w;
  const std::int64_t cycles = out.power_cycles;
  out.standby_fraction =
      cycles ? static_cast<double>(out.standby_cycles) / cycles : 0.0;
  const double seconds = cycles ? static_cast<double>(cycles) /
                                      static_cast<double>(nodes) / freq_hz
                                : 0.0;
  out.realized_saving_w = seconds > 0.0 ? saving_j / seconds : 0.0;
}

// FNV-1a over every simulated output (never over host timings).
std::uint64_t digest(const MeshOutputs& o);

// Checks conservation at drain and sane power columns; returns an
// empty string when the run is valid, else the first violation.
std::string check_mesh(const MeshOutputs& o);

// The replay's layer loops, in per-cycle order.  The router phase is
// split in two loops: the first probes every router's quiescence and
// takes the idle path for the quiescent ones, the second runs the full
// pipeline for the rest.  Routers within one phase are independent
// (they read only last cycle's channel deliveries), so the split
// leaves every simulated output unchanged; the digest check proves it.
enum Layer : int {
  kTraffic,
  kNic,
  kRouterIdle,
  kRouterBusy,
  kEject,
  kChannel,
  kNumLayers
};
const char* layer_name(int layer);

struct Span {
  std::int64_t cycle;
  int layer;
  std::int64_t start_ns;  // relative to the replay's start
  std::int64_t end_ns;
};

struct ReplayProfile {
  std::int64_t layer_ns[kNumLayers] = {};  // clock overhead removed
  std::int64_t router_idle_calls = 0;
  std::int64_t router_busy_calls = 0;
  std::int64_t link_ticks = 0;
  std::int64_t node_cycles = 0;
  // Power hook: one router in 8 wraps its hook in a timer that times
  // one call in 8.
  std::int64_t hook_sampled = 0;
  std::int64_t hook_sampled_ns = 0;
  std::vector<Span> spans;  // the last replay's spans only
};

// Runs `cfg` (serial, per-cycle stepping, no faults) with the given
// power configuration; accumulates layer totals into `prof` and
// replaces prof.spans with this run's spans.
MeshOutputs replay_serial(const lain::noc::SimConfig& cfg,
                          const lain::core::NocPowerConfig& pcfg,
                          const lain::xbar::Characterization& chars,
                          ReplayProfile& prof);

// Writes prof.spans as CSV (cycle,layer,start_ns,end_ns).  Returns
// false when the file cannot be written.
bool write_spans(const std::string& path, const ReplayProfile& prof);

}  // namespace perfbench
