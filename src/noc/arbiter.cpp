#include "noc/arbiter.hpp"

#include <numeric>

namespace lain::noc {
namespace {

void check_inputs(int inputs) {
  if (inputs < 1 || inputs > kMaxRequesters) {
    throw std::invalid_argument(
        "arbiter needs 1..64 inputs (one 64-bit request mask)");
  }
}

}  // namespace

int Arbiter::arbitrate(const std::vector<std::uint8_t>& requests) {
  if (static_cast<int>(requests.size()) != num_inputs()) {
    throw std::invalid_argument("request vector size mismatch");
  }
  Mask m = 0;
  for (int i = 0; i < num_inputs(); ++i) {
    if (requests[static_cast<size_t>(i)]) m |= mask_bit(i);
  }
  return arbitrate(m);
}

RoundRobinArbiter::RoundRobinArbiter(int inputs, int start)
    : inputs_(inputs), next_(start) {
  check_inputs(inputs);
  if (start < 0 || start >= inputs) {
    throw std::invalid_argument("arbiter start index out of range");
  }
}

MatrixArbiter::MatrixArbiter(int inputs) : inputs_(inputs) {
  check_inputs(inputs);
  // Initial priority: lower index beats higher.
  std::iota(rank_.begin(), rank_.begin() + inputs, std::uint8_t{0});
}

}  // namespace lain::noc
