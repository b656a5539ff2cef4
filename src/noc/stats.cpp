#include "noc/stats.hpp"

namespace lain::noc {

double Histogram::mean() const {
  if (n_ == 0) return 0.0;
  double s = 0.0;
  for (const auto& [v, c] : bins_) s += static_cast<double>(v) * c;
  return s / static_cast<double>(n_);
}

std::int64_t Histogram::percentile(double q) const {
  if (n_ == 0) return 0;
  // Nearest rank: the first value whose cumulative share reaches q,
  // i.e. the value at rank ceil(q * n).  Comparing the share seen / n
  // with q, rather than seen with q * n, keeps a q that is not exact in
  // binary (0.07 * 100 rounds to just above 7) from skipping a rank.
  const auto n = static_cast<double>(n_);
  std::int64_t seen = 0;
  for (const auto& [v, c] : bins_) {
    seen += c;
    if (static_cast<double>(seen) / n >= q) return v;
  }
  return bins_.rbegin()->first;
}

double Histogram::fraction_at_least(std::int64_t threshold) const {
  if (n_ == 0) return 0.0;
  std::int64_t above = 0;
  for (const auto& [v, c] : bins_) {
    if (v >= threshold) above += c;
  }
  return static_cast<double>(above) / static_cast<double>(n_);
}

}  // namespace lain::noc
