#include "core/experiments.hpp"

namespace lain::core {

NocPowerConfig default_noc_power(xbar::Scheme scheme, bool enable_gating) {
  NocPowerConfig cfg;
  cfg.xbar_spec = xbar::table1_spec();
  cfg.scheme = scheme;
  cfg.buffer.depth_flits = 4;
  cfg.buffer.width_bits = cfg.xbar_spec.flit_bits;
  cfg.buffer.vcs = 2;
  cfg.link.width_bits = cfg.xbar_spec.flit_bits;
  cfg.enable_gating = enable_gating;
  return cfg;
}

noc::SimConfig make_sim_config(int radix, noc::TopologyKind topology,
                               double injection_rate,
                               noc::TrafficPattern pattern,
                               std::uint64_t seed) {
  noc::SimConfig cfg;
  cfg.topology = topology;
  cfg.radix_x = radix;
  cfg.radix_y = radix;
  cfg.vcs = 2;
  cfg.vc_depth_flits = 4;
  cfg.pattern = pattern;
  cfg.injection_rate = injection_rate;
  cfg.packet_length_flits = 4;
  cfg.warmup_cycles = 1000;
  cfg.measure_cycles = 4000;
  cfg.drain_limit_cycles = 20000;
  cfg.seed = seed;
  return cfg;
}

noc::SimConfig default_mesh_config(double injection_rate,
                                   noc::TrafficPattern pattern,
                                   std::uint64_t seed) {
  return make_sim_config(5, noc::TopologyKind::kMesh, injection_rate, pattern,
                         seed);
}

}  // namespace lain::core
