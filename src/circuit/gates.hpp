// gates.hpp — gate-level helpers.
//
// The crossbar schemes are assembled from a handful of primitives that
// appear in Figs 1-3: NMOS pass transistors (grant mux), CMOS
// inverters (driver chains I1/I2), a feedback keeper (P1), a sleep
// footer (N5), and a precharge pFET.  The builder (xbar/builder.hpp)
// assembles them into netlists; this module provides the two analytic
// helpers the delay model (xbar/characterize.cpp) composes on top:
// keeper contention and the pass gate's degraded swing.

#pragma once

#include "tech/mosfet.hpp"

namespace lain::circuit {

// Ratioed-fight slowdown of a transition that must overpower a keeper:
// the driver sees its current reduced by the keeper's, so
//   slowdown = 1 / (1 - i_keeper / i_driver),   i_keeper < i_driver.
// Throws std::domain_error if the keeper wins (>= driver current).
double keeper_contention_slowdown(double i_driver_a, double i_keeper_a);

// Swing degradation through an NMOS-only pass transistor: a logic-1
// arrives at Vdd - Vth(n).  Returns the degraded high level (V).
double pass_degraded_high_v(const tech::DeviceModel& m,
                            const tech::Mosfet& pass);

}  // namespace lain::circuit
