// test_differential_oracle.cpp — a randomized differential oracle for
// the NoC kernel.
//
// The other engine-identity tests compare steppings and shard layouts
// at a few hand-picked configurations.  Here a seeded generator draws
// valid SimConfigs across the space the kernel treats differently:
// mesh and torus at radix 2-8, VC count, buffer depth and packet
// length, every traffic pattern with and without bursts, rates on both
// sides of SimKernel::kEventSteppingMaxRate, link and router faults
// with and without repair, metrics windows, and powered runs with
// gating on and off.  Each config runs on the per-cycle reference
// pipeline (enable_idle_fastpath = false, one shard) and on the
// kernel's own stepping at 1, 2 and 4 shards, row bands and 2D blocks.
// Every run must agree bit for bit: SimStats, cycle count, saturation,
// the metrics-window series and, for powered runs, every PoweredNoc
// column at each window boundary and at the end.  A mismatch prints
// the generator seed and the first field that differs.  Every run must
// also keep the credit invariant (Network::free_slots) on every live
// link at each window boundary and at the end.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/experiments.hpp"
#include "core/noc_integration.hpp"
#include "noc/fault.hpp"
#include "noc/parallel/sharded_sim.hpp"
#include "noc/rng.hpp"
#include "noc/topology.hpp"

namespace lain::noc {
namespace {

struct Drawn {
  SimConfig cfg;
  Cycle window = 0;      // metrics window (0: none)
  bool powered = false;  // PoweredNoc attached
  xbar::Scheme scheme = xbar::Scheme::kSC;
  bool gating = true;
};

// Draws one valid configuration from `seed`.  Small fabrics and short
// phases keep a run to milliseconds; the drain limit bounds saturated
// runs.
Drawn draw_config(std::uint64_t seed) {
  Rng rng(mix_seed(0x0DDC0FFEEull, seed));
  auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(
                    rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  auto chance = [&rng](double p) { return rng.next_double() < p; };
  auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * rng.next_double();
  };

  Drawn d;
  SimConfig& cfg = d.cfg;
  cfg.topology = chance(0.5) ? TopologyKind::kTorus : TopologyKind::kMesh;
  const bool torus = cfg.topology == TopologyKind::kTorus;
  cfg.radix_x = pick(2, 8);
  cfg.radix_y = pick(2, 8);
  const bool faults = chance(0.35);
  // Faults reserve an escape VC; the torus needs two dateline classes.
  const int min_vcs = (torus ? 2 : 1) + (faults ? 1 : 0);
  cfg.vcs = pick(min_vcs, 4);
  cfg.vc_depth_flits = pick(1, 6);
  cfg.packet_length_flits = pick(1, 6);
  constexpr TrafficPattern kPatterns[] = {
      TrafficPattern::kUniform,    TrafficPattern::kTranspose,
      TrafficPattern::kBitComplement, TrafficPattern::kBitReverse,
      TrafficPattern::kHotspot,    TrafficPattern::kTornado,
      TrafficPattern::kNeighbor};
  cfg.pattern = kPatterns[pick(0, 6)];
  // Transpose traffic needs a square fabric.
  if (cfg.pattern == TrafficPattern::kTranspose) cfg.radix_y = cfg.radix_x;
  cfg.hotspot_node = pick(0, cfg.num_nodes() - 1);
  cfg.hotspot_fraction = uniform(0.0, 1.0);

  // Half the draws step event-driven (at or below the constant, the
  // constant itself included), half per-cycle.
  const double edge = SimKernel::kEventSteppingMaxRate;
  if (chance(0.5)) {
    cfg.injection_rate = chance(0.2) ? edge : uniform(0.0005, edge);
  } else {
    cfg.injection_rate = uniform(edge * 1.01, 0.35);
  }
  if (chance(0.3)) {
    // On-off bursts; the ON-state rate rate/duty stays <= 1.
    cfg.burst_duty = uniform(std::max(0.05, cfg.injection_rate), 0.9);
    cfg.burst_on_mean_cycles = uniform(1.0, 80.0);
  }

  cfg.warmup_cycles = pick(0, 200);
  cfg.measure_cycles = pick(100, 600);
  cfg.drain_limit_cycles = pick(500, 2500);
  cfg.seed = rng.next_u64();

  if (faults) {
    FaultSpec& f = cfg.fault;
    if (chance(0.25)) {
      f.routers = 1;
      f.allow_partition = true;  // a router kill always disconnects
    } else {
      f.links = pick(1, 3);
      f.allow_partition = chance(0.3);
    }
    f.at = chance(0.3) ? 0 : pick(1, static_cast<int>(cfg.warmup_cycles +
                                                      cfg.measure_cycles));
    f.repair = chance(0.5) ? pick(20, 300) : 0;
    f.seed = chance(0.5) ? 0 : rng.next_u64();
    // A disconnecting link plan needs allow_partition to be valid.
    try {
      const Network net(cfg);
      FaultPlan::build(cfg, net);
    } catch (const std::runtime_error&) {
      f.allow_partition = true;
    }
  }

  d.window = chance(0.5) ? pick(25, 300) : 0;
  d.powered = chance(0.5);
  d.scheme = xbar::all_schemes()[static_cast<std::size_t>(pick(0, 4))];
  d.gating = chance(0.5);
  cfg.validate();
  return d;
}

std::string describe(const Drawn& d) {
  const SimConfig& c = d.cfg;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%s %dx%d vcs=%d depth=%d len=%d %s rate=%.6g duty=%.3g warm=%lld "
      "measure=%lld drain=%lld links=%d routers=%d at=%lld repair=%lld "
      "partition=%d window=%lld powered=%d scheme=%s gating=%d",
      c.topology == TopologyKind::kTorus ? "torus" : "mesh", c.radix_x,
      c.radix_y, c.vcs, c.vc_depth_flits, c.packet_length_flits,
      traffic_name(c.pattern), c.injection_rate, c.burst_duty,
      static_cast<long long>(c.warmup_cycles),
      static_cast<long long>(c.measure_cycles),
      static_cast<long long>(c.drain_limit_cycles), c.fault.links,
      c.fault.routers, static_cast<long long>(c.fault.at),
      static_cast<long long>(c.fault.repair), c.fault.allow_partition ? 1 : 0,
      static_cast<long long>(d.window), d.powered ? 1 : 0,
      std::string(xbar::scheme_name(d.scheme)).c_str(), d.gating ? 1 : 0);
  return buf;
}

// Everything one run exposes, flattened into named fields.  Doubles
// print as hex floats, so equal text means equal bits.
class Observation {
 public:
  void i64(const std::string& name, std::int64_t v) {
    fields_.push_back({name, std::to_string(v)});
  }
  void f64(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    fields_.push_back({name, buf});
  }
  void stats(const std::string& at, const SimStats& s) {
    i64(at + "packets_injected", s.packets_injected);
    i64(at + "packets_ejected", s.packets_ejected);
    i64(at + "flits_injected", s.flits_injected);
    i64(at + "flits_ejected", s.flits_ejected);
    i64(at + "packets_lost", s.packets_lost);
    i64(at + "flits_lost", s.flits_lost);
    i64(at + "packets_retransmitted", s.packets_retransmitted);
    i64(at + "packets_unreachable_dropped", s.packets_unreachable_dropped);
    i64(at + "measured_cycles", s.measured_cycles);
    i64(at + "num_nodes", s.num_nodes);
    acc(at + "packet_latency", s.packet_latency);
    acc(at + "network_latency", s.network_latency);
    acc(at + "hops", s.hops);
    for (const auto& [value, count] : s.latency_hist.bins()) {
      i64(at + "latency_hist[" + std::to_string(value) + "]", count);
    }
  }
  void power(const std::string& at, const core::PoweredNoc& p) {
    f64(at + "total_energy_j", p.total_energy_j());
    f64(at + "crossbar_energy_j", p.crossbar_energy_j());
    f64(at + "buffer_energy_j", p.buffer_energy_j());
    f64(at + "arbiter_energy_j", p.arbiter_energy_j());
    f64(at + "link_energy_j", p.link_energy_j());
    f64(at + "average_power_w", p.average_power_w());
    f64(at + "crossbar_average_power_w", p.crossbar_average_power_w());
    f64(at + "realized_standby_saving_j", p.realized_standby_saving_j());
    i64(at + "standby_cycles", p.standby_cycles());
    i64(at + "total_cycles", p.total_cycles());
  }

  // The credit invariant: between steps no credit is in flight, so the
  // producer of every live link holds, for every VC, exactly the
  // downstream slots its flits have not filled.  Keeps the first
  // violation.
  void check_credits(const std::string& at, const SimKernel& sim) {
    if (!credit_violation_.empty()) return;
    const Network& net = sim.network();
    const FaultController* faults = sim.fault_controller();
    for (int li = 0; li < net.num_links(); ++li) {
      if (faults != nullptr && !faults->link_alive(li)) continue;
      for (int v = 0; v < net.config().vcs; ++v) {
        const int held = net.producer_credits(li, v);
        const int free = net.free_slots(li, v);
        if (held != free) {
          credit_violation_ = at + "link " + std::to_string(li) + " vc " +
                              std::to_string(v) + ": producer holds " +
                              std::to_string(held) + " credits, " +
                              std::to_string(free) + " slots free";
          return;
        }
      }
    }
  }
  // The first credit-invariant violation, or "" when none.
  const std::string& credit_violation() const { return credit_violation_; }

  // The first field where the two differ, or "" when identical.
  std::string first_difference(const Observation& o) const {
    const std::size_t n = std::min(fields_.size(), o.fields_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Field& a = fields_[i];
      const Field& b = o.fields_[i];
      if (a.name != b.name || a.value != b.value) {
        return a.name + "=" + a.value + " vs " + b.name + "=" + b.value;
      }
    }
    if (fields_.size() != o.fields_.size()) {
      return std::to_string(fields_.size()) + " fields vs " +
             std::to_string(o.fields_.size());
    }
    return "";
  }

 private:
  struct Field {
    std::string name;
    std::string value;
  };
  void acc(const std::string& name, const Accumulator& a) {
    i64(name + ".count", a.count());
    f64(name + ".mean", a.mean());
    f64(name + ".variance", a.variance());
    f64(name + ".min", a.min());
    f64(name + ".max", a.max());
  }
  std::vector<Field> fields_;
  std::string credit_violation_;
};

core::LainContext& oracle_context() {
  static core::LainContext ctx;
  return ctx;
}

Observation observe(const Drawn& d, const SimConfig& cfg,
                    const ShardedOptions& opt) {
  ShardedSimulation sim(cfg, opt);
  std::unique_ptr<core::PoweredNoc> power;
  if (d.powered) {
    const core::NocPowerConfig pcfg = core::default_noc_power(d.scheme,
                                                              d.gating);
    power = std::make_unique<core::PoweredNoc>(
        sim.network(), pcfg,
        oracle_context().characterization(pcfg.xbar_spec, pcfg.scheme));
  }
  Observation o;
  if (d.window > 0) {
    sim.set_metrics_window(d.window, [&](const SimKernel::MetricsWindow& w) {
      const std::string at = "window " + std::to_string(w.index) + " ";
      o.i64(at + "begin", w.begin);
      o.i64(at + "end", w.end);
      o.stats(at, w.stats);
      o.i64(at + "flits_in_flight", sim.network().flits_in_flight());
      if (power) o.power(at, *power);
      o.check_credits(at, sim);
    });
  }
  const SimStats s = sim.run();
  o.check_credits("end ", sim);
  o.stats("", s);
  o.i64("cycles", sim.now());
  o.i64("saturated", sim.saturated() ? 1 : 0);
  o.i64("unreachable_pairs", sim.unreachable_pairs());
  if (power) o.power("", *power);
  return o;
}

// Runs seed's config on the reference and on every engine layout.
void expect_engines_agree(std::uint64_t seed) {
  const Drawn d = draw_config(seed);
  SimConfig reference_cfg = d.cfg;
  reference_cfg.enable_idle_fastpath = false;
  const Observation reference =
      observe(d, reference_cfg, ShardedOptions{/*shards=*/1});
  EXPECT_EQ(reference.credit_violation(), "")
      << "oracle seed " << seed << " (" << describe(d)
      << "): the per-cycle reference broke the credit invariant at "
      << reference.credit_violation();

  struct Layout {
    int shards;
    PartitionStrategy partition;
  };
  constexpr Layout kLayouts[] = {{1, PartitionStrategy::kRowBands},
                                 {2, PartitionStrategy::kRowBands},
                                 {2, PartitionStrategy::kBlocks2D},
                                 {4, PartitionStrategy::kRowBands},
                                 {4, PartitionStrategy::kBlocks2D}};
  for (const Layout& l : kLayouts) {
    ShardedOptions opt;
    opt.shards = l.shards;
    opt.partition = l.partition;
    const Observation run = observe(d, d.cfg, opt);
    const std::string diff = reference.first_difference(run);
    EXPECT_EQ(diff, "") << "oracle seed " << seed << " (" << describe(d)
                        << "): " << l.shards << " shard(s) "
                        << partition_name(l.partition)
                        << " differs from the per-cycle reference at "
                        << diff;
    EXPECT_EQ(run.credit_violation(), "")
        << "oracle seed " << seed << " (" << describe(d) << "): "
        << l.shards << " shard(s) " << partition_name(l.partition)
        << " broke the credit invariant at " << run.credit_violation();
  }
}

constexpr std::uint64_t kSeedCount = 96;

TEST(DifferentialOracle, KernelMatchesPerCycleReferenceOnSeededConfigs) {
  for (std::uint64_t seed = 1; seed <= kSeedCount; ++seed) {
    expect_engines_agree(seed);
  }
}

// The fixed seed list must reach every corner the generator names, so
// a generator change cannot silently narrow the oracle.
TEST(DifferentialOracle, SeedListCoversTheConfigSpace) {
  int event = 0, per_cycle = 0, torus = 0, mesh = 0, bursty = 0;
  int faults = 0, repaired = 0, permanent = 0, router_kills = 0;
  int windowed = 0, gated = 0, ungated = 0;
  std::vector<int> patterns(7, 0);
  for (std::uint64_t seed = 1; seed <= kSeedCount; ++seed) {
    const Drawn d = draw_config(seed);
    const SimConfig& c = d.cfg;
    (c.injection_rate <= SimKernel::kEventSteppingMaxRate ? event
                                                          : per_cycle)++;
    (c.topology == TopologyKind::kTorus ? torus : mesh)++;
    bursty += c.burst_duty < 1.0 ? 1 : 0;
    if (c.fault.enabled()) {
      ++faults;
      (c.fault.repair > 0 ? repaired : permanent)++;
      router_kills += c.fault.routers > 0 ? 1 : 0;
    }
    windowed += d.window > 0 ? 1 : 0;
    if (d.powered) (d.gating ? gated : ungated)++;
    ++patterns[static_cast<std::size_t>(c.pattern)];
  }
  for (int n : {event, per_cycle, torus, mesh, bursty, faults, repaired,
                permanent, router_kills, windowed, gated, ungated}) {
    EXPECT_GT(n, 0);
  }
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    EXPECT_GT(patterns[p], 0) << traffic_name(static_cast<TrafficPattern>(p));
  }
}

}  // namespace
}  // namespace lain::noc
