#include "circuit/energy.hpp"

#include <gtest/gtest.h>

namespace lain::circuit {
namespace {

TEST(Energy, RandomAlpha) {
  EXPECT_DOUBLE_EQ(random_alpha01(0.0), 0.0);
  EXPECT_DOUBLE_EQ(random_alpha01(1.0), 0.0);
  EXPECT_DOUBLE_EQ(random_alpha01(0.5), 0.25);  // worst case
  // Maximum at p = 0.5.
  EXPECT_GT(random_alpha01(0.5), random_alpha01(0.3));
  EXPECT_GT(random_alpha01(0.5), random_alpha01(0.7));
  EXPECT_THROW(random_alpha01(1.5), std::invalid_argument);
}

TEST(Energy, PrechargeAlpha) {
  // Precharged node recharges after every 0-datum.
  EXPECT_DOUBLE_EQ(precharge_alpha01(0.0), 1.0);
  EXPECT_DOUBLE_EQ(precharge_alpha01(1.0), 0.0);
  EXPECT_DOUBLE_EQ(precharge_alpha01(0.5), 0.5);
  // At 50% static probability the precharged wire switches 2x the
  // random wire — the reason DPC's total power barely beats SC in
  // Table 1 despite its 43.7% leakage saving.
  EXPECT_DOUBLE_EQ(precharge_alpha01(0.5), 2.0 * random_alpha01(0.5));
  EXPECT_THROW(precharge_alpha01(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace lain::circuit
