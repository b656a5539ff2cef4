// energy.hpp — switching-activity factors for dynamic energy.
//
// Conventions (xbar/characterize.cpp and power/link_power.cpp apply
// them):
//   * one 0->1 transition of node capacitance C draws C*Vdd^2 from the
//     supply (half stored, half dissipated); the matching 1->0
//     dissipates the stored half.  Energy *per full toggle pair* is
//     therefore C*Vdd^2, and it is billed on the 0->1 edge, so a
//     node's dynamic power is C*Vdd^2 * f * alpha01.
//   * `alpha01` is the expected number of 0->1 transitions per clock
//     cycle of the node.  For random data with static probability p
//     (P[bit = 1] = p), alpha01 = p*(1-p) per cycle.

#pragma once

namespace lain::circuit {

// 0->1 transition probability per cycle of an uncorrelated random bit
// stream with static probability p.
double random_alpha01(double static_probability);

// 0->1 transition probability per cycle of a *precharged* node: the
// node is parked at 1 every cycle and discharged whenever the datum is
// 0, so it recharges with probability (1-p) each active cycle.
double precharge_alpha01(double static_probability);

}  // namespace lain::circuit
