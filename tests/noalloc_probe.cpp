// noalloc_probe.cpp — proves the zero-allocation contract of the
// router hot path at runtime, not just by inspection: this standalone
// binary replaces global operator new with a counting wrapper and
// steps fabrics through their steady state, asserting that the
// router-tick region performs zero heap allocations
//
//   (a) on the idle fast path (quiescent routers, tick_idle),
//   (b) on the full pipeline with nothing to do (forced slow path),
//   (c) on the full pipeline under saturation (RC/VA/SA/ST all busy),
//   (d) on the NIC tick in steady state (completion vector capacity
//       is reserved up front; packet sourcing, which legitimately
//       grows the source queue, stays outside the measured region),
//   (e) on the channel exchange phase (fixed-ring pipes; the whole
//       tick_channels sweep must not touch the heap),
//   (f) on the powered idle path: deferred idle spans flushed through
//       tick_idle_n into the SDPC power hooks' batched accounting,
//       across the gating threshold, plus tick_idle.
//
// Everything here is single-threaded and deterministic, so a pass is
// a proof, not a sample.  Registered as the `noalloc_router_hot_path`
// CTest.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/experiments.hpp"
#include "core/noc_integration.hpp"
#include "noc/topology.hpp"
#include "xbar/characterize.hpp"

namespace {

std::int64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace lain::noc;

int failures = 0;

void check(const char* what, std::int64_t allocs, std::int64_t cycles) {
  const bool ok = allocs == 0;
  std::printf("%-44s %8lld cycles  %6lld allocs  %s\n", what,
              static_cast<long long>(cycles), static_cast<long long>(allocs),
              ok ? "OK" : "FAIL");
  if (!ok) ++failures;
}

// (a) + (b): an idle fabric, fast path and forced full pipeline.
void probe_idle() {
  SimConfig cfg;  // 5x5 mesh defaults, no traffic ever
  Network net(cfg);
  const int kCycles = 2000;

  std::int64_t before = g_allocs;
  for (int t = 0; t < kCycles; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.router(n).tick_idle();
  }
  check("idle fast path (tick_idle)", g_allocs - before, kCycles);

  before = g_allocs;
  for (int t = 0; t < kCycles; ++t) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) net.router(n).tick();
    net.tick_channels();
  }
  check("full pipeline, quiescent fabric (tick)", g_allocs - before, kCycles);
}

// (c)+(d)+(e): a 3x3 mesh held at injection-limited saturation with a
// fixed neighbour-offset pattern (no RNG) — every stage of every
// router is exercised every cycle.  Warmup lets one-time growth (NIC
// completion vectors, idle-run histogram bins) reach steady state;
// after it, the router-tick, NIC-tick and channel-exchange regions
// must each be allocation-free.  Packet sourcing (which grows the
// source queue) stays outside all three measured regions.
void probe_saturated() {
  SimConfig cfg;
  cfg.radix_x = 3;
  cfg.radix_y = 3;
  Network net(cfg);
  std::int64_t id = 0;
  const int kWarmup = 4000;
  const int kMeasure = 2000;
  std::int64_t router_allocs = 0;
  std::int64_t nic_allocs = 0;
  std::int64_t channel_allocs = 0;
  std::int64_t traversals = 0;
  for (int t = 0; t < kWarmup + kMeasure; ++t) {
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      Nic& nic = net.nic(node);
      if (nic.source_queue_flits() < cfg.packet_length_flits) {
        nic.source_packet((node + 4) % 9, t, ++id);
      }
    }
    std::int64_t before = g_allocs;
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      net.nic(node).tick(t);
    }
    if (t >= kWarmup) nic_allocs += g_allocs - before;
    before = g_allocs;
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      net.router(node).tick();
    }
    if (t >= kWarmup) {
      router_allocs += g_allocs - before;
      for (NodeId node = 0; node < net.num_nodes(); ++node) {
        traversals += net.router(node).last_events().flits_sent;
      }
    }
    before = g_allocs;
    net.tick_channels();
    if (t >= kWarmup) channel_allocs += g_allocs - before;
  }
  check("full pipeline, saturated 3x3 mesh (tick)", router_allocs, kMeasure);
  check("NIC tick, saturated 3x3 mesh", nic_allocs, kMeasure);
  check("channel exchange, saturated 3x3 mesh", channel_allocs, kMeasure);
  // Sanity: the measured region really was busy.
  if (traversals < kMeasure * 4) {
    std::printf("probe error: fabric was not saturated (%lld traversals)\n",
                static_cast<long long>(traversals));
    ++failures;
  }
}

// (f): an idle 5x5 fabric whose routers carry SDPC power hooks with
// gating on.  Each router takes tick_idle_n spans of 1 to 4096 cycles,
// each followed by a tick_idle, so the batched accounting runs from
// the ungated state through the gating transition and on in standby.
// Characterization and hook construction stay outside the region.
void probe_powered_idle() {
  SimConfig cfg;
  Network net(cfg);
  const lain::core::NocPowerConfig pcfg =
      lain::core::default_noc_power(lain::xbar::Scheme::kSDPC);
  const lain::core::PoweredNoc powered(
      net, pcfg, lain::xbar::characterize(pcfg.xbar_spec, pcfg.scheme));
  std::int64_t cycles = 0;
  const std::int64_t before = g_allocs;
  for (std::int64_t span = 1; span <= 4096; span += span < 8 ? 1 : span) {
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      net.router(n).tick_idle_n(span);
      net.router(n).tick_idle();
    }
    cycles += span + 1;
  }
  check("powered idle spans (tick_idle_n, tick_idle)", g_allocs - before,
        cycles);
  // Sanity: the spans crossed the gating threshold on every router.
  const std::int64_t router_cycles = cycles * net.num_nodes();
  if (powered.total_cycles() != router_cycles ||
      powered.standby_cycles() <= 0 ||
      powered.standby_cycles() >= router_cycles) {
    std::printf("probe error: no gating transition (%lld of %lld standby)\n",
                static_cast<long long>(powered.standby_cycles()),
                static_cast<long long>(router_cycles));
    ++failures;
  }
}

}  // namespace

int main() {
  probe_idle();
  probe_saturated();
  probe_powered_idle();
  if (failures) {
    std::printf("%d probe(s) FAILED: a LAIN_NO_ALLOC region allocated\n",
                failures);
    return 1;
  }
  std::printf(
      "router, NIC, channel and powered idle paths are allocation-free\n");
  return 0;
}
