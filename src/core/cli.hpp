// cli.hpp — tiny argument parser and axis-spec parsing for the
// unified lain_bench CLI.  Kept in the library (not in bench/) so the
// parsing rules are unit-tested.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "noc/config.hpp"
#include "noc/parallel/partition.hpp"
#include "xbar/scheme.hpp"

namespace lain::core {

// GNU-ish "--flag value" / "--flag=value" / bare-positional parser.
// `value_flags` take a value (the "=..." part or the next token);
// `switch_flags` are boolean and never consume the next token.
// Unknown flags throw std::invalid_argument at construction so typos
// fail loudly instead of silently running the default sweep.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv,
            const std::vector<std::string>& value_flags,
            const std::vector<std::string>& switch_flags = {});

  const std::vector<std::string>& positionals() const { return positionals_; }

  bool has(const std::string& flag) const;
  // Value of --flag; `fallback` when absent.  A flag given without a
  // value (end of argv or next token is another flag) yields "".
  std::string get(const std::string& flag, const std::string& fallback) const;
  // --flag as one finite number / one whole integer; `fallback` when
  // absent or empty.  Anything else ("1x", "2.5" for an integer)
  // throws std::invalid_argument naming the flag.
  double get_double(const std::string& flag, double fallback) const;
  int get_int(const std::string& flag, int fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> options_;
  std::vector<std::string> positionals_;
};

// Runs `fn` on --flag's `value`, rethrowing a parse error as
// std::invalid_argument that names the flag instead of surfacing
// std::sto*'s bare "stoi" message.
template <typename Fn>
auto parse_flag(const std::string& flag, const std::string& value, Fn fn)
    -> decltype(fn(value)) {
  try {
    return fn(value);
  } catch (const std::exception& e) {
    throw std::invalid_argument("--" + flag + ": cannot parse '" + value +
                                "' (" + e.what() + ")");
  }
}

// "a,b,c" -> {"a","b","c"}; empty input -> {}.
std::vector<std::string> split_csv(const std::string& s);

// Comma list of integers ("8,16,32"); throws on empty input or
// non-integer pieces.
std::vector<int> parse_int_list(const std::string& spec);

// One finite number ("0.05", "1e-3"); throws on trailing junk, NaN
// and infinities.  Every numeric flag parses through it.
double parse_finite(const std::string& s);

// One whole unsigned 64-bit integer in decimal digits ("7",
// "18446744073709551615"); throws on a sign, blanks, trailing junk
// ("7x") or a value past 2^64 - 1.  The seed flags parse through it.
std::uint64_t parse_u64(const std::string& s);

// Numeric axis spec: either "start:stop:step" (inclusive stop, with a
// half-step tolerance against FP drift) or a comma list "0.05,0.1".
// A range of more than 10^6 points is rejected before it expands.
std::vector<double> parse_range(const std::string& spec);

// Named axes.  All throw std::invalid_argument on unknown names;
// "all" expands to every scheme.
std::vector<xbar::Scheme> parse_schemes(const std::string& csv);
std::vector<noc::TrafficPattern> parse_patterns(const std::string& csv);
// Partition strategies ("rows", "blocks2d", "auto"), comma-separated.
std::vector<noc::PartitionStrategy> parse_partitions(const std::string& csv);

xbar::Scheme scheme_from_name(const std::string& name);

}  // namespace lain::core
