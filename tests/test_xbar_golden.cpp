// test_xbar_golden.cpp — absolute crossbar characterizations, pinned
// to constants.
//
// Table 1 and every powered run start from xbar::characterize().  The
// other crossbar tests check shapes and bands (SDPC leaks less than
// SC, delays within a range), which a change to the circuit solve can
// move inside of.  These cases pin the numbers themselves: each
// characterizes all five schemes at one design point and compares one
// digest of every Characterization field with a constant recorded from
// the library.  The design points are the Table 1 point and six
// off-nominal ones that cover every node, both static-probability
// extremes and both temperatures.
//
// A digest that moves means a characterization moved.  Re-record a
// constant only for an intended model change, and say which and why in
// the commit that does it.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>

#include "xbar/characterize.hpp"

namespace lain::xbar {
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
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct Outcome {
  std::uint64_t digest = 0;
  std::string summary;  // printed on mismatch
};

Outcome run(const CrossbarSpec& spec, Scheme scheme) {
  const Characterization c = characterize(spec, scheme);
  Digest d;
  d.i64(static_cast<std::int64_t>(c.scheme));
  for (double v :
       {c.delay_hl_s, c.delay_lh_s, c.active_leakage_w, c.idle_leakage_w,
        c.standby_leakage_w, c.dynamic_power_w, c.control_power_w,
        c.total_power_w, c.sleep_entry_energy_j, c.wakeup_energy_j}) {
    d.f64(v);
  }
  d.i64(c.min_idle_cycles);

  char buf[384];
  std::snprintf(buf, sizeof buf,
                "%s: digest=0x%016llx hl=%.17g lh=%.17g active=%.17g "
                "idle=%.17g standby=%.17g dynamic=%.17g control=%.17g "
                "total=%.17g entry=%.17g wakeup=%.17g mit=%d",
                std::string(scheme_name(scheme)).c_str(),
                static_cast<unsigned long long>(d.value()), c.delay_hl_s,
                c.delay_lh_s, c.active_leakage_w, c.idle_leakage_w,
                c.standby_leakage_w, c.dynamic_power_w, c.control_power_w,
                c.total_power_w, c.sleep_entry_energy_j, c.wakeup_energy_j,
                c.min_idle_cycles);
  return {d.value(), buf};
}

// Expected digests in all_schemes() order: SC, DFC, DPC, SDFC, SDPC.
void expect_digests(const CrossbarSpec& spec,
                    const std::array<std::uint64_t, 5>& expected) {
  const auto schemes = all_schemes();
  ASSERT_EQ(schemes.size(), expected.size());
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const Outcome o = run(spec, schemes[i]);
    EXPECT_EQ(o.digest, expected[i]) << o.summary;
  }
}

CrossbarSpec point(tech::Node node, double static_probability,
                   double temp_k) {
  CrossbarSpec spec = table1_spec();
  spec.node = node;
  spec.static_probability = static_probability;
  spec.temp_k = temp_k;
  return spec;
}

TEST(XbarGolden, Table1Point) {
  expect_digests(table1_spec(),
                 {0xe766259d660271b3ull, 0xeb2541f5b9660cfaull,
                  0x999e3f61653094b9ull, 0x4345015c7bc24223ull,
                  0x3fbd7abc050907e9ull});
}

TEST(XbarGolden, N90Sp01T300) {
  expect_digests(point(tech::Node::k90nm, 0.1, 300.0),
                 {0x4f662c5cd2ad7392ull, 0x355ff61b66a8c95bull,
                  0x2a517515d40d8301ull, 0x6a9c9e8552dc5c84ull,
                  0x004e50184eb129bbull});
}

TEST(XbarGolden, N90Sp09T383) {
  expect_digests(point(tech::Node::k90nm, 0.9, 383.0),
                 {0x046226a8251677bdull, 0x18dd5fcbc6b1c9f1ull,
                  0x62dab106bf5911baull, 0x4c74ab027eaffa9dull,
                  0x77f2a3bb1aa74f8cull});
}

TEST(XbarGolden, N65Sp01T383) {
  expect_digests(point(tech::Node::k65nm, 0.1, 383.0),
                 {0x6619921b7dc529c4ull, 0x11c416700e11c139ull,
                  0xc604f2246aa8de94ull, 0xc37abbb6c0de04efull,
                  0xe9ecc60bc1b2133dull});
}

TEST(XbarGolden, N65Sp09T300) {
  expect_digests(point(tech::Node::k65nm, 0.9, 300.0),
                 {0x52131ee96abedd7aull, 0x91492b67c27efd95ull,
                  0x3f21fb49a82abee9ull, 0x7d0c2213821e2214ull,
                  0x388d85a8da125f63ull});
}

TEST(XbarGolden, N45Sp01T300) {
  expect_digests(point(tech::Node::k45nm, 0.1, 300.0),
                 {0x9bc0866e977aab3eull, 0xec752c42b55fec83ull,
                  0xde7c7edd382d6754ull, 0x314ee19546522215ull,
                  0xbf82c2cc0456f52dull});
}

TEST(XbarGolden, N45Sp09T383) {
  expect_digests(point(tech::Node::k45nm, 0.9, 383.0),
                 {0xab234e45dea4aabbull, 0x740d4a25eb8dc281ull,
                  0x3d8cdaeb7f0084a6ull, 0x88c134b42ec1bec9ull,
                  0x7320179cba871d44ull});
}

}  // namespace
}  // namespace lain::xbar
