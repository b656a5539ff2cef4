// Failure injection on configuration surfaces: every malformed config
// must be rejected with std::invalid_argument, never silently accepted.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "noc/config.hpp"
#include "xbar/builder.hpp"

namespace lain {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(SimConfigValidation, AcceptsDefault) {
  noc::SimConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.num_nodes(), 25);
}

TEST(SimConfigValidation, RejectsBadFields) {
  auto expect_bad = [](auto mutate) {
    noc::SimConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  };
  expect_bad([](noc::SimConfig& c) { c.radix_x = 1; });
  expect_bad([](noc::SimConfig& c) { c.radix_y = 0; });
  expect_bad([](noc::SimConfig& c) { c.vcs = 0; });
  expect_bad([](noc::SimConfig& c) {
    c.topology = noc::TopologyKind::kTorus;
    c.vcs = 1;  // dateline needs >= 2 VCs
  });
  expect_bad([](noc::SimConfig& c) { c.vc_depth_flits = 0; });
  expect_bad([](noc::SimConfig& c) { c.injection_rate = -0.1; });
  expect_bad([](noc::SimConfig& c) { c.injection_rate = 1.5; });
  expect_bad([](noc::SimConfig& c) { c.packet_length_flits = 0; });
  expect_bad([](noc::SimConfig& c) { c.hotspot_node = 100; });
  expect_bad([](noc::SimConfig& c) { c.hotspot_node = -1; });
  expect_bad([](noc::SimConfig& c) { c.hotspot_fraction = 2.0; });
  expect_bad([](noc::SimConfig& c) { c.measure_cycles = 0; });
  expect_bad([](noc::SimConfig& c) { c.warmup_cycles = -1; });
  // NaN fails every range check, not just the ones written to catch it.
  expect_bad([](noc::SimConfig& c) { c.injection_rate = kNaN; });
  expect_bad([](noc::SimConfig& c) { c.hotspot_fraction = kNaN; });
  expect_bad([](noc::SimConfig& c) { c.burst_duty = kNaN; });
  expect_bad([](noc::SimConfig& c) { c.burst_on_mean_cycles = kNaN; });
}

TEST(SimConfigValidation, VcCountBoundedByTheRouterMaskWidth) {
  // 5 ports x 12 VCs fill the router's 64-bit VC masks; 13 do not.
  noc::SimConfig cfg;
  cfg.vcs = 12;
  EXPECT_NO_THROW(cfg.validate());
  cfg.vcs = 13;
  try {
    cfg.validate();
    ADD_FAILURE() << "vcs = 13 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("64-bit"), std::string::npos)
        << e.what();
  }
}

TEST(CrossbarSpecValidation, AcceptsTable1Point) {
  EXPECT_NO_THROW(xbar::table1_spec().validate());
}

TEST(CrossbarSpecValidation, RejectsBadFields) {
  auto expect_bad = [](auto mutate) {
    xbar::CrossbarSpec spec = xbar::table1_spec();
    mutate(spec);
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  };
  expect_bad([](xbar::CrossbarSpec& s) { s.ports = 1; });
  expect_bad([](xbar::CrossbarSpec& s) { s.flit_bits = 0; });
  expect_bad([](xbar::CrossbarSpec& s) { s.freq_hz = -1.0; });
  expect_bad([](xbar::CrossbarSpec& s) { s.static_probability = -0.01; });
  expect_bad([](xbar::CrossbarSpec& s) { s.static_probability = 1.01; });
  expect_bad([](xbar::CrossbarSpec& s) { s.temp_k = 0.0; });
  expect_bad([](xbar::CrossbarSpec& s) { s.sizing.pass_width_m = 0.0; });
  expect_bad([](xbar::CrossbarSpec& s) { s.sizing.keeper_width_m = -1e-6; });
  expect_bad([](xbar::CrossbarSpec& s) { s.sizing.precharge_width_m = 0.0; });
  expect_bad(
      [](xbar::CrossbarSpec& s) { s.sizing.segment_switch_width_m = 0.0; });
  // NaN and infinities fail every check.
  expect_bad([](xbar::CrossbarSpec& s) { s.freq_hz = kNaN; });
  expect_bad([](xbar::CrossbarSpec& s) { s.static_probability = kNaN; });
  expect_bad([](xbar::CrossbarSpec& s) { s.temp_k = kNaN; });
  expect_bad([](xbar::CrossbarSpec& s) {
    s.temp_k = std::numeric_limits<double>::infinity();
  });
  expect_bad([](xbar::CrossbarSpec& s) { s.sizing.pass_width_m = kNaN; });
}

TEST(SimConfigValidation, SegmentedSchemesNeedThreePorts) {
  xbar::CrossbarSpec spec = xbar::table1_spec();
  spec.ports = 2;
  EXPECT_THROW(xbar::build_output_slice(spec, xbar::Scheme::kSDFC),
               std::invalid_argument);
  EXPECT_NO_THROW(xbar::build_output_slice(spec, xbar::Scheme::kSC));
}

}  // namespace
}  // namespace lain
