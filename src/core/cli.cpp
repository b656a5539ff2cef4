#include "core/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace lain::core {

namespace {

bool is_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

constexpr double kMaxRangePoints = 1e6;

// One whole integer: std::stoi's rules, but trailing characters
// ("2x", "1.9") are an error instead of being dropped.
int parse_int(const std::string& s) {
  std::size_t used = 0;
  const int v = std::stoi(s, &used);
  if (used != s.size()) throw std::invalid_argument("not an integer: " + s);
  return v;
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv,
                     const std::vector<std::string>& value_flags,
                     const std::vector<std::string>& switch_flags) {
  auto contains = [](const std::vector<std::string>& v, const std::string& s) {
    return std::find(v.begin(), v.end(), s) != v.end();
  };
  for (int i = 0; i < argc; ++i) {
    std::string tok = argv[i];
    if (!is_flag(tok)) {
      positionals_.push_back(std::move(tok));
      continue;
    }
    std::string flag = tok.substr(2);
    std::string value;
    const std::size_t eq = flag.find('=');
    bool have_value = false;
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      have_value = true;
    }
    const bool takes_value = contains(value_flags, flag);
    if (!takes_value && !contains(switch_flags, flag)) {
      throw std::invalid_argument("unknown flag: --" + flag);
    }
    if (takes_value && !have_value && i + 1 < argc && !is_flag(argv[i + 1])) {
      value = argv[++i];
    }
    options_.emplace_back(std::move(flag), std::move(value));
  }
}

bool ArgParser::has(const std::string& flag) const {
  for (const auto& [k, v] : options_)
    if (k == flag) return true;
  return false;
}

std::string ArgParser::get(const std::string& flag,
                           const std::string& fallback) const {
  for (const auto& [k, v] : options_)
    if (k == flag) return v;
  return fallback;
}

double ArgParser::get_double(const std::string& flag, double fallback) const {
  const std::string v = get(flag, "");
  if (v.empty()) return fallback;
  return parse_flag(flag, v, parse_finite);
}

int ArgParser::get_int(const std::string& flag, int fallback) const {
  const std::string v = get(flag, "");
  if (v.empty()) return fallback;
  return parse_flag(flag, v, parse_int);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string piece =
        s.substr(start, comma == std::string::npos ? std::string::npos
                                                   : comma - start);
    if (!piece.empty()) out.push_back(piece);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::vector<int> parse_int_list(const std::string& spec) {
  std::vector<int> out;
  for (const std::string& piece : split_csv(spec)) {
    out.push_back(parse_int(piece));
  }
  if (out.empty()) throw std::invalid_argument("empty integer axis: " + spec);
  return out;
}

std::uint64_t parse_u64(const std::string& s) {
  // std::stoull alone would take "7x" as 7 and wrap "-1" to 2^64 - 1.
  if (s.empty() || !std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    throw std::invalid_argument("not an unsigned integer: " + s);
  }
  return std::stoull(s);  // throws std::out_of_range past 2^64 - 1
}

double parse_finite(const std::string& s) {
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument("not a number: " + s);
  if (!std::isfinite(v)) throw std::invalid_argument("not finite: " + s);
  return v;
}

std::vector<double> parse_range(const std::string& spec) {
  if (spec.find(':') != std::string::npos) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
      const std::size_t colon = spec.find(':', start);
      parts.push_back(spec.substr(
          start, colon == std::string::npos ? std::string::npos
                                            : colon - start));
      if (colon == std::string::npos) break;
      start = colon + 1;
    }
    if (parts.size() != 3)
      throw std::invalid_argument("range spec must be start:stop:step: " +
                                  spec);
    const double lo = parse_finite(parts[0]);
    const double hi = parse_finite(parts[1]);
    const double step = parse_finite(parts[2]);
    if (step <= 0.0) throw std::invalid_argument("range step must be > 0");
    if (hi < lo) throw std::invalid_argument("range stop < start: " + spec);
    // Inclusive stop with half-step tolerance: 0.05:0.45:0.05 yields
    // exactly nine points despite accumulated FP error.  The loop below
    // emits floor(span + 1/2) + 1 points.
    const double span = (hi - lo) / step;
    if (!(span + 0.5 < kMaxRangePoints)) {
      throw std::invalid_argument("range has more than 1000000 points: " +
                                  spec);
    }
    std::vector<double> out;
    for (int k = 0;; ++k) {
      const double v = lo + k * step;
      if (v > hi + step / 2.0) break;
      out.push_back(v);
    }
    return out;
  }
  std::vector<double> out;
  for (const std::string& piece : split_csv(spec)) {
    out.push_back(parse_finite(piece));
  }
  if (out.empty()) throw std::invalid_argument("empty numeric axis: " + spec);
  return out;
}

xbar::Scheme scheme_from_name(const std::string& name) {
  std::string upper;
  for (char c : name)
    upper += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  for (xbar::Scheme s : xbar::all_schemes())
    if (upper == xbar::scheme_name(s)) return s;
  throw std::invalid_argument("unknown scheme: " + name);
}

std::vector<xbar::Scheme> parse_schemes(const std::string& csv) {
  if (csv == "all") {
    const auto all = xbar::all_schemes();
    return std::vector<xbar::Scheme>(all.begin(), all.end());
  }
  std::vector<xbar::Scheme> out;
  for (const std::string& name : split_csv(csv))
    out.push_back(scheme_from_name(name));
  if (out.empty()) throw std::invalid_argument("empty scheme list");
  return out;
}

std::vector<noc::TrafficPattern> parse_patterns(const std::string& csv) {
  std::vector<noc::TrafficPattern> out;
  for (const std::string& name : split_csv(csv))
    out.push_back(noc::traffic_from_name(name));
  if (out.empty()) throw std::invalid_argument("empty pattern list");
  return out;
}

std::vector<noc::PartitionStrategy> parse_partitions(const std::string& csv) {
  std::vector<noc::PartitionStrategy> out;
  for (const std::string& name : split_csv(csv))
    out.push_back(noc::partition_from_name(name));
  if (out.empty()) throw std::invalid_argument("empty partition list");
  return out;
}

}  // namespace lain::core
