#include "circuit/gates.hpp"

#include <gtest/gtest.h>

#include "tech/itrs.hpp"

namespace lain::circuit {
namespace {

using tech::DeviceModel;
using tech::DeviceType;
using tech::Mosfet;
using tech::VtClass;

class GatesTest : public ::testing::Test {
 protected:
  DeviceModel model{tech::itrs_node(tech::Node::k45nm), 383.0};
};

TEST_F(GatesTest, KeeperContention) {
  EXPECT_DOUBLE_EQ(keeper_contention_slowdown(1e-3, 0.0), 1.0);
  EXPECT_NEAR(keeper_contention_slowdown(1e-3, 0.5e-3), 2.0, 1e-9);
  EXPECT_NEAR(keeper_contention_slowdown(4e-3, 1e-3), 4.0 / 3.0, 1e-9);
  EXPECT_THROW(keeper_contention_slowdown(1e-3, 1e-3), std::domain_error);
  EXPECT_THROW(keeper_contention_slowdown(0.0, 1e-4), std::domain_error);
  EXPECT_THROW(keeper_contention_slowdown(1e-3, -1e-4), std::invalid_argument);
}

TEST_F(GatesTest, PassGateDegradedHigh) {
  const Mosfet pass{DeviceType::kNmos, VtClass::kNominal, 3e-6};
  const double v = pass_degraded_high_v(model, pass);
  EXPECT_LT(v, model.vdd_v());
  EXPECT_GT(v, 0.6 * model.vdd_v());
  // High-Vt pass degrades further.
  const Mosfet hpass{DeviceType::kNmos, VtClass::kHigh, 3e-6};
  EXPECT_LT(pass_degraded_high_v(model, hpass), v);
  // PMOS rejected.
  const Mosfet p{DeviceType::kPmos, VtClass::kNominal, 3e-6};
  EXPECT_THROW(pass_degraded_high_v(model, p), std::invalid_argument);
}

}  // namespace
}  // namespace lain::circuit
