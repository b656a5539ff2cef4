#include "noc/allocator.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace lain::noc {

SeparableAllocator::SeparableAllocator(int inputs, int outputs)
    : inputs_(inputs), outputs_(outputs) {
  if (inputs < 1 || outputs < 1 || inputs > kMaxRequesters ||
      outputs > kMaxRequesters) {
    throw std::invalid_argument(
        "allocator needs 1..64 inputs and outputs (64-bit request masks)");
  }
  input_stage_.reserve(static_cast<size_t>(inputs));
  output_stage_.reserve(static_cast<size_t>(outputs));
  // Staggered initial priorities prevent the inputs from proposing the
  // same output in lockstep forever.
  for (int i = 0; i < inputs; ++i) {
    input_stage_.emplace_back(outputs, i % outputs);
  }
  for (int o = 0; o < outputs; ++o) output_stage_.emplace_back(inputs);
  proposers_.assign(static_cast<size_t>(outputs), 0);
}

LAIN_HOT_PATH LAIN_NO_ALLOC void SeparableAllocator::allocate(
    const Mask* requests, int* grant) {
  // Stage 1: each requesting input proposes one output.
  Mask proposed = 0;  // outputs with at least one proposer
  for (int i = 0; i < inputs_; ++i) {
    grant[i] = -1;
    if (requests[i] == 0) continue;
    const int o = input_stage_[static_cast<size_t>(i)].arbitrate(requests[i]);
    proposers_[static_cast<size_t>(o)] |= mask_bit(i);
    proposed |= mask_bit(o);
  }
  // Stage 2: each proposed output, in ascending order, grants one of
  // its proposers.
  for (; proposed != 0; proposed &= proposed - 1) {
    const int o = lowest_bit(proposed);
    Mask& from = proposers_[static_cast<size_t>(o)];
    grant[output_stage_[static_cast<size_t>(o)].arbitrate(from)] = o;
    from = 0;
  }
}

std::vector<int> SeparableAllocator::allocate(
    const std::vector<std::uint8_t>& requests) {
  if (static_cast<int>(requests.size()) != inputs_ * outputs_) {
    throw std::invalid_argument("request matrix size mismatch");
  }
  std::vector<Mask> rows(static_cast<size_t>(inputs_), 0);
  for (int i = 0; i < inputs_; ++i) {
    for (int o = 0; o < outputs_; ++o) {
      if (requests[static_cast<size_t>(i * outputs_ + o)]) {
        rows[static_cast<size_t>(i)] |= mask_bit(o);
      }
    }
  }
  std::vector<int> grant(static_cast<size_t>(inputs_), -1);
  allocate(rows.data(), grant.data());
  return grant;
}

}  // namespace lain::noc
