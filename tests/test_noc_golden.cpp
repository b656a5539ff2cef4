// test_noc_golden.cpp — absolute NoC outputs, pinned to constants.
//
// The other NoC tests compare two engines, stepping modes or shard
// counts with each other.  A change to what the simulator computes (a
// different arbitration order, say) moves both sides alike and passes
// them.  These cases pin the outputs themselves: each runs a short
// configuration on the serial kernel and compares one digest of its
// SimStats (counters, accumulators, latency histogram), cycle count,
// saturation flag and, for powered runs, the PoweredNoc energies and
// standby cycles with a constant recorded from the simulator.
//
// A digest that moves means the simulated behaviour moved.  Re-record
// a constant only for an intended model change, and say which and why
// in the commit that does it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/noc_integration.hpp"
#include "noc/sim.hpp"

namespace lain::noc {
namespace {

// FNV-1a over the raw bytes of every folded value.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 1099511628211ull;
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void acc(const Accumulator& a) {
    i64(a.count());
    f64(a.mean());
    f64(a.variance());
    f64(a.min());
    f64(a.max());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

SimConfig base(TopologyKind topology, int radix, int vcs, double rate,
               TrafficPattern pattern) {
  SimConfig cfg;
  cfg.topology = topology;
  cfg.radix_x = radix;
  cfg.radix_y = radix;
  cfg.vcs = vcs;
  cfg.vc_depth_flits = 4;
  cfg.packet_length_flits = 4;
  cfg.pattern = pattern;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = 200;
  cfg.measure_cycles = 800;
  cfg.drain_limit_cycles = 5000;
  cfg.seed = 7;
  return cfg;
}

struct Outcome {
  std::uint64_t digest = 0;
  std::string summary;  // printed on mismatch
};

// Runs cfg on the serial kernel; `powered` attaches SDPC crossbars
// with Minimum-Idle-Time gating to every router.
Outcome run(const SimConfig& cfg, bool powered) {
  Simulation sim(cfg);
  core::LainContext ctx;
  const core::NocPowerConfig pcfg =
      core::default_noc_power(xbar::Scheme::kSDPC, /*enable_gating=*/true);
  std::unique_ptr<core::PoweredNoc> power;
  if (powered) {
    power = std::make_unique<core::PoweredNoc>(
        sim.network(), pcfg,
        ctx.characterization(pcfg.xbar_spec, pcfg.scheme));
  }
  const SimStats s = sim.run();

  Digest d;
  for (std::int64_t v :
       {s.packets_injected, s.packets_ejected, s.flits_injected,
        s.flits_ejected, s.packets_lost, s.flits_lost, s.packets_retransmitted,
        s.packets_unreachable_dropped, s.measured_cycles,
        static_cast<std::int64_t>(s.num_nodes)}) {
    d.i64(v);
  }
  d.acc(s.packet_latency);
  d.acc(s.network_latency);
  d.acc(s.hops);
  for (const auto& [value, count] : s.latency_hist.bins()) {
    d.i64(value);
    d.i64(count);
  }
  d.i64(sim.now());
  d.i64(sim.saturated() ? 1 : 0);
  if (power) {
    for (double v :
         {power->total_energy_j(), power->crossbar_energy_j(),
          power->buffer_energy_j(), power->arbiter_energy_j(),
          power->link_energy_j(), power->realized_standby_saving_j()}) {
      d.f64(v);
    }
    d.i64(power->standby_cycles());
    d.i64(power->total_cycles());
  }

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "digest=0x%016llx cycles=%lld saturated=%d packets=%lld/%lld "
                "lost=%lld retx=%lld latency=%.6f hops=%.6f standby=%lld",
                static_cast<unsigned long long>(d.value()),
                static_cast<long long>(sim.now()), sim.saturated() ? 1 : 0,
                static_cast<long long>(s.packets_injected),
                static_cast<long long>(s.packets_ejected),
                static_cast<long long>(s.packets_lost),
                static_cast<long long>(s.packets_retransmitted),
                s.packet_latency.mean(), s.hops.mean(),
                static_cast<long long>(power ? power->standby_cycles() : 0));
  return {d.value(), buf};
}

void expect_digest(const SimConfig& cfg, bool powered,
                   std::uint64_t expected) {
  const Outcome o = run(cfg, powered);
  EXPECT_EQ(o.digest, expected) << o.summary;
}

TEST(NocGolden, Mesh8UniformPoweredSdpc) {
  expect_digest(base(TopologyKind::kMesh, 8, 2, 0.15, TrafficPattern::kUniform),
                /*powered=*/true, 0x9508d56acc579db0ull);
}

TEST(NocGolden, Mesh8HotspotFourVcs) {
  expect_digest(base(TopologyKind::kMesh, 8, 4, 0.1, TrafficPattern::kHotspot),
                /*powered=*/false, 0x4936dc31e0a04552ull);
}

TEST(NocGolden, Torus4TransposeDatelineVcs) {
  SimConfig cfg =
      base(TopologyKind::kTorus, 4, 2, 0.1, TrafficPattern::kTranspose);
  cfg.measure_cycles = 2000;
  expect_digest(cfg, /*powered=*/false, 0xe4f6c68fa535ba31ull);
}

// A link flap: killed mid-measurement and repaired 400 cycles later,
// so heads re-route onto the escape VC and back.
TEST(NocGolden, Torus4LinkFlapEscapeVc) {
  SimConfig cfg =
      base(TopologyKind::kTorus, 4, 3, 0.1, TrafficPattern::kUniform);
  cfg.measure_cycles = 2000;
  cfg.fault.links = 1;
  cfg.fault.at = 300;
  cfg.fault.repair = 400;
  expect_digest(cfg, /*powered=*/false, 0xe3d5eeddc91ed035ull);
}

// Two permanent link kills while the links carry flits: purges a
// packet mid-flight and retransmits it.
TEST(NocGolden, Mesh8TwoLinkFaults) {
  SimConfig cfg =
      base(TopologyKind::kMesh, 8, 2, 0.1, TrafficPattern::kUniform);
  cfg.fault.links = 2;
  cfg.fault.at = 300;
  expect_digest(cfg, /*powered=*/false, 0x3ca010671e2c3fe8ull);
}

TEST(NocGolden, Mesh8SparsePoweredSdpc) {
  SimConfig cfg =
      base(TopologyKind::kMesh, 8, 2, 0.002, TrafficPattern::kUniform);
  cfg.measure_cycles = 3000;
  expect_digest(cfg, /*powered=*/true, 0xbe036832998c8ab1ull);
}

}  // namespace
}  // namespace lain::noc
