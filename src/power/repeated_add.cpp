#include "power/repeated_add.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

namespace lain::power {

double repeated_add(double acc, double k, std::int64_t n) {
  while (n > 0) {
    // acc normal, positive and below 2^1023 (so the binade's edge is
    // finite); 0 <= k < acc, which also makes k finite.
    if (!(acc >= DBL_MIN && acc < 0x1p1023 && k >= 0.0 && k < acc)) {
      acc += k;
      --n;
      continue;
    }
    int e = 0;
    std::frexp(acc, &e);  // acc in [2^(e-1), 2^e)
    const double ulp = std::ldexp(1.0, e - 53);
    const double edge = std::ldexp(1.0, e);
    // Exact: a division by a power of two, and k < acc < 2^e keeps the
    // quotient below 2^53.
    const double q = k / ulp;
    const double whole = std::floor(q);
    const double frac = q - whole;
    if (frac == 0.5) {
      acc += k;
      --n;
      continue;
    }
    const std::int64_t inc =
        static_cast<std::int64_t>(whole) + (frac > 0.5 ? 1 : 0);
    if (inc == 0) return acc;
    // Every step whose result stays below the edge adds inc ulps; all
    // these integers are below 2^53, so the jump is one exact addition.
    const std::int64_t room = static_cast<std::int64_t>((edge - acc) / ulp);
    const std::int64_t steps = std::min(n, (room - 1) / inc);
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
