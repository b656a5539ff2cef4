#include "circuit/gates.hpp"

#include <stdexcept>

namespace lain::circuit {

double keeper_contention_slowdown(double i_driver_a, double i_keeper_a) {
  if (i_driver_a <= 0.0) throw std::domain_error("driver has no current");
  if (i_keeper_a < 0.0) throw std::invalid_argument("negative keeper current");
  if (i_keeper_a >= i_driver_a) {
    throw std::domain_error(
        "keeper overpowers driver; transition never completes");
  }
  return 1.0 / (1.0 - i_keeper_a / i_driver_a);
}

double pass_degraded_high_v(const tech::DeviceModel& m,
                            const tech::Mosfet& pass) {
  if (pass.type != tech::DeviceType::kNmos) {
    throw std::invalid_argument("pass-gate swing model expects NMOS");
  }
  // Source follower cutoff: node charges until Vgs = Vth (body effect
  // folded into a 15 % Vth uplift).
  const double vth = m.vth_v(pass, m.vdd_v()) * 1.15;
  return m.vdd_v() - vth;
}

}  // namespace lain::circuit
