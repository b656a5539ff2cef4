#include "noc/crossbar_sw.hpp"

namespace lain::noc {

void CrossbarActivity::record_idle(std::int64_t n) {
  // n consecutive record(0) calls, collapsed: pure integer adds, so
  // the batched form is exactly equal, and the open idle run keeps
  // growing until the next busy cycle closes it into the histogram.
  cycles_ += n;
  idle_run_ += n;
  idle_cycles_ += n;
}

double CrossbarActivity::gateable_idle_fraction(int min_idle_cycles) const {
  if (idle_cycles_ == 0) return 0.0;
  std::int64_t gateable = 0;
  for (const auto& [len, count] : idle_runs_.bins()) {
    if (len >= min_idle_cycles) gateable += len * count;
  }
  // The still-open idle run counts if already long enough.
  if (idle_run_ >= min_idle_cycles) gateable += idle_run_;
  return static_cast<double>(gateable) / static_cast<double>(idle_cycles_);
}

}  // namespace lain::noc
