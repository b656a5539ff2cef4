#include "power/repeated_add.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

namespace lain::power {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// The double 2^(field - 1023): a power of two built from its biased
// exponent field, 1 <= field <= 2046.
double pow2_field(std::uint64_t field) {
  const std::uint64_t b = field << 52;
  double v = 0.0;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

}  // namespace

double repeated_add(double acc, double k, std::int64_t n) {
  while (n > 0) {
    // acc normal, positive and below 2^1023 (so the binade's edge is
    // finite); 0 <= k < acc, which also makes k finite.
    if (!(acc >= DBL_MIN && acc < 0x1p1023 && k >= 0.0 && k < acc)) {
      acc += k;
      --n;
      continue;
    }
    // acc in [2^(e-1), 2^e) with e = field - 1022, its ulp 2^(e-53).
    // q is k in ulps and room the ulps from acc to the edge 2^e; both
    // are exact (a scaling by a power of two), and k < acc < 2^e keeps
    // them below 2^53.
    const std::uint64_t field = bits_of(acc) >> 52;  // acc > 0: no sign
    double ulp = 0.0;
    double q = 0.0;
    double room_ulps = 0.0;
    if (field > 52) {
      // The ulp is normal and its reciprocal finite: multiply by the
      // reciprocal instead of dividing by the ulp.
      ulp = pow2_field(field - 52);
      const double inv_ulp = pow2_field(2098 - field);
      q = k * inv_ulp;
      room_ulps = (pow2_field(field + 1) - acc) * inv_ulp;
    } else {
      // A subnormal ulp, whose reciprocal may overflow.
      int e = 0;
      std::frexp(acc, &e);
      ulp = std::ldexp(1.0, e - 53);
      q = k / ulp;
      room_ulps = (std::ldexp(1.0, e) - acc) / ulp;
    }
    const std::int64_t whole = static_cast<std::int64_t>(q);  // floor
    const double frac = q - static_cast<double>(whole);
    if (frac == 0.5) {
      acc += k;
      --n;
      continue;
    }
    const std::int64_t inc = whole + (frac > 0.5 ? 1 : 0);
    if (inc == 0) return acc;
    // Every step whose result stays below the edge adds inc ulps; all
    // these integers are below 2^53, so the jump is one exact addition.
    // The whole run stays below the edge when n * inc < room; compared
    // in doubles that test is exact (room is an integer below 2^53 and
    // rounding is monotonic) and needs no division.
    std::int64_t steps = n;
    if (static_cast<double>(n) * static_cast<double>(inc) >= room_ulps) {
      const std::int64_t room = static_cast<std::int64_t>(room_ulps);
      steps = std::min(n, (room - 1) / inc);
    }
    acc += static_cast<double>(steps * inc) * ulp;
    n -= steps;
    if (n > 0) {
      acc += k;  // the step across the edge
      --n;
    }
  }
  return acc;
}

}  // namespace lain::power
