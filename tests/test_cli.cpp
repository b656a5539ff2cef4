// test_cli.cpp — argument / axis-spec parsing for the lain_bench CLI
// and the sweep-service tools.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/cli.hpp"

namespace lain {
namespace {

core::ArgParser parse(std::vector<const char*> argv,
                      std::vector<std::string> value_flags,
                      std::vector<std::string> switch_flags = {}) {
  return core::ArgParser(static_cast<int>(argv.size()), argv.data(),
                         value_flags, switch_flags);
}

TEST(ArgParser, ParsesFlagsWithSeparateAndEqualsValues) {
  // --csv is a switch: it must NOT swallow the trailing positional.
  const auto args = parse({"--threads", "8", "--rates=0.05:0.45:0.05",
                           "--csv", "pos"},
                          {"threads", "rates"}, {"csv"});
  EXPECT_EQ(args.get_int("threads", 1), 8);
  EXPECT_EQ(args.get("rates", ""), "0.05:0.45:0.05");
  EXPECT_TRUE(args.has("csv"));
  EXPECT_FALSE(args.has("threads-missing"));
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "pos");
}

TEST(ArgParser, FallbacksApplyWhenFlagAbsent) {
  const auto args = parse({}, {"threads", "seed"});
  EXPECT_EQ(args.get_int("threads", 4), 4);
  EXPECT_EQ(args.get_double("threads", 0.5), 0.5);
  EXPECT_EQ(args.get("seed", "x"), "x");
}

TEST(ArgParser, NumericGettersTakeOneWholeNumberAndNameTheFlag) {
  const auto args =
      parse({"--retry", "2x", "--workers", "1.9zz", "--backoff-ms", "abc",
             "--job-timeout-s", "1x", "--n", "-3", "--t", "2.5"},
            {"retry", "workers", "backoff-ms", "job-timeout-s", "n", "t"});
  EXPECT_EQ(args.get_int("n", 0), -3);
  EXPECT_EQ(args.get_double("t", 0.0), 2.5);
  // Trailing characters are an error, not silently dropped ("2x" read
  // 2, "1.9zz" read 1), and every error names its flag.
  for (const char* flag : {"retry", "workers", "backoff-ms", "t"}) {
    try {
      args.get_int(flag, 0);
      ADD_FAILURE() << "--" << flag << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  try {
    args.get_double("job-timeout-s", 0.0);
    ADD_FAILURE() << "--job-timeout-s 1x parsed as a number";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--job-timeout-s"),
              std::string::npos)
        << e.what();
  }
}

TEST(ArgParser, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}, {"threads"}), std::invalid_argument);
}

TEST(ArgParser, SwitchesNeverConsumeValues) {
  const auto args = parse({"--csv", "--threads", "2"}, {"threads"}, {"csv"});
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get("csv", "zz"), "");
  EXPECT_EQ(args.get_int("threads", 1), 2);
}

TEST(ArgParser, ValueFlagAtEndOfArgvHasEmptyValue) {
  const auto args = parse({"--rates"}, {"rates"});
  EXPECT_TRUE(args.has("rates"));
  EXPECT_EQ(args.get("rates", "zz"), "");
}

TEST(SplitCsv, SplitsAndDropsEmptyPieces) {
  EXPECT_EQ(core::split_csv("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(core::split_csv(""), std::vector<std::string>{});
  EXPECT_EQ(core::split_csv("a,,b"), (std::vector<std::string>{"a", "b"}));
}

TEST(ParseRange, ColonFormIsInclusiveAndFpRobust) {
  // The ISSUE's example spec: nine points despite FP accumulation.
  const std::vector<double> r = core::parse_range("0.05:0.45:0.05");
  ASSERT_EQ(r.size(), 9u);
  EXPECT_DOUBLE_EQ(r.front(), 0.05);
  EXPECT_NEAR(r.back(), 0.45, 1e-12);
}

TEST(ParseRange, CommaFormAndSinglePoint) {
  EXPECT_EQ(core::parse_range("0.1").size(), 1u);
  const std::vector<double> r = core::parse_range("0.05,0.2,0.4");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[1], 0.2);
  // Degenerate colon range: one point.
  EXPECT_EQ(core::parse_range("0.3:0.3:0.1").size(), 1u);
}

TEST(ParseRange, RejectsMalformedSpecs) {
  EXPECT_THROW(core::parse_range("0.1:0.5"), std::invalid_argument);
  EXPECT_THROW(core::parse_range("0.5:0.1:0.1"), std::invalid_argument);
  EXPECT_THROW(core::parse_range("0.1:0.5:0"), std::invalid_argument);
  EXPECT_THROW(core::parse_range(""), std::invalid_argument);
  // Non-finite numbers and trailing junk, in both forms.
  for (const char* spec : {"0:1:nan", "0:inf:1", "nan:1:0.1", "nan",
                           "0.1,nan", "-inf", "0.1,inf", "0.05x",
                           "0:1:0.5x"}) {
    EXPECT_THROW(core::parse_range(spec), std::invalid_argument) << spec;
  }
  // Ranges too long to expand: 10^12 points, and 10^6 + 1.
  EXPECT_THROW(core::parse_range("0:1e9:1e-3"), std::invalid_argument);
  EXPECT_THROW(core::parse_range("0:1000000:1"), std::invalid_argument);
  EXPECT_THROW(core::parse_range("-1e308:1e308:1"), std::invalid_argument);
  // 10^6 points is the most a range may expand to.
  EXPECT_EQ(core::parse_range("1:1000000:1").size(), 1000000u);
}

TEST(ParseSchemes, NamesAreCaseInsensitiveAndAllExpands) {
  EXPECT_EQ(core::scheme_from_name("sdpc"), xbar::Scheme::kSDPC);
  EXPECT_EQ(core::scheme_from_name("SC"), xbar::Scheme::kSC);
  EXPECT_EQ(core::parse_schemes("all").size(), 5u);
  const auto two = core::parse_schemes("sc,dfc");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[1], xbar::Scheme::kDFC);
  EXPECT_THROW(core::parse_schemes("xyz"), std::invalid_argument);
  EXPECT_THROW(core::parse_schemes(""), std::invalid_argument);
}

TEST(ParsePatterns, MatchesTrafficNames) {
  const auto p = core::parse_patterns("uniform,tornado");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], noc::TrafficPattern::kUniform);
  EXPECT_EQ(p[1], noc::TrafficPattern::kTornado);
  EXPECT_THROW(core::parse_patterns("nope"), std::invalid_argument);
}

TEST(ParsePartitions, MatchesStrategyNames) {
  const auto p = core::parse_partitions("rows,blocks2d,auto");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], noc::PartitionStrategy::kRowBands);
  EXPECT_EQ(p[1], noc::PartitionStrategy::kBlocks2D);
  EXPECT_EQ(p[2], noc::PartitionStrategy::kAuto);
  EXPECT_THROW(core::parse_partitions("diagonal"), std::invalid_argument);
  EXPECT_THROW(core::parse_partitions(""), std::invalid_argument);
}

TEST(ParseIntList, ParsesCommaListAndRejectsJunk) {
  const auto v = core::parse_int_list("8,16,32");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 8);
  EXPECT_EQ(v[1], 16);
  EXPECT_EQ(v[2], 32);
  EXPECT_EQ(core::parse_int_list("4").size(), 1u);
  EXPECT_THROW(core::parse_int_list(""), std::invalid_argument);
  EXPECT_THROW(core::parse_int_list("8,x"), std::invalid_argument);
  EXPECT_THROW(core::parse_int_list("8.5"), std::invalid_argument);
}

}  // namespace
}  // namespace lain
