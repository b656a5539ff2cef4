// test_experiments.cpp — the experiment layer's default configs and
// powered NoC runs through a session.

#include "core/experiments.hpp"

#include <gtest/gtest.h>

#include "core/context.hpp"

namespace lain::core {
namespace {

TEST(Experiments, DefaultConfigsAreValid) {
  EXPECT_NO_THROW(default_mesh_config(0.1, noc::TrafficPattern::kUniform)
                      .validate());
  const NocPowerConfig cfg = default_noc_power(xbar::Scheme::kSDFC);
  EXPECT_NO_THROW(cfg.xbar_spec.validate());
  EXPECT_EQ(cfg.xbar_spec.ports, noc::kNumPorts);
  EXPECT_EQ(cfg.buffer.width_bits, cfg.xbar_spec.flit_bits);
}

// One powered run of the canonical 5x5 mesh (E8), gating on.
NocRunResult run_mesh(LainContext& ctx, xbar::Scheme scheme, double rate,
                      noc::TrafficPattern pattern, std::uint64_t seed = 1) {
  NocRunSpec spec;
  spec.scheme = scheme;
  spec.sim = default_mesh_config(rate, pattern, seed);
  return ctx.run_noc(spec);
}

TEST(Experiments, RunResultFieldsPopulated) {
  LainContext ctx;
  const NocRunResult r = run_mesh(ctx, xbar::Scheme::kDFC, 0.08,
                                  noc::TrafficPattern::kNeighbor);
  EXPECT_EQ(r.scheme, xbar::Scheme::kDFC);
  EXPECT_DOUBLE_EQ(r.injection_rate, 0.08);
  EXPECT_EQ(r.pattern, noc::TrafficPattern::kNeighbor);
  EXPECT_GT(r.throughput_flits_node_cycle, 0.0);
  EXPECT_FALSE(r.saturated);
}

TEST(Experiments, SeedsReproduce) {
  LainContext ctx;
  const NocRunResult a = run_mesh(ctx, xbar::Scheme::kSC, 0.1,
                                  noc::TrafficPattern::kUniform, 7);
  const NocRunResult b = run_mesh(ctx, xbar::Scheme::kSC, 0.1,
                                  noc::TrafficPattern::kUniform, 7);
  EXPECT_DOUBLE_EQ(a.avg_packet_latency_cycles, b.avg_packet_latency_cycles);
  EXPECT_DOUBLE_EQ(a.network_power_w, b.network_power_w);
}

}  // namespace
}  // namespace lain::core
