// arbiter.hpp — round-robin and matrix arbiters over request masks.
//
// Both are strong arbiters (a persistent requester is eventually
// granted — property-tested in tests/test_arbiter.cpp).  A request set
// is one 64-bit Mask, bit i set meaning input i requests, so an
// arbiter serves at most kMaxRequesters inputs and one arbitration is
// a few word operations rather than a scan over a request array.
//
// The round-robin arbiter grants the first requester at or after its
// pointer.  The matrix arbiter implements least-recently-served
// priority, as in the router the paper's crossbar would sit in.  Its
// priority matrix is always a total order (each winner drops below
// every other input), so it is kept as each input's rank in that
// order, one byte per input, and grants exactly what the R(R-1)/2-bit
// matrix would: the requester of lowest rank wins.  The ranks live
// inline, so an allocator's arbiters sit in one block, and the
// least-recently-served update moves eight ranks per 64-bit word.
//
// Both mask entry points are defined here so the allocator's and the
// router's calls inline.  The checked std::vector overload is a thin
// adapter for tests and tools.

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/contracts.hpp"

namespace lain::noc {

// A set of up to 64 requesters (or resources): bit i = index i.
using Mask = std::uint64_t;
inline constexpr int kMaxRequesters = 64;

inline constexpr Mask mask_bit(int i) { return Mask{1} << i; }
// The low n bits, 0 <= n <= 64.
inline constexpr Mask low_mask(int n) {
  return n >= kMaxRequesters ? ~Mask{0} : mask_bit(n) - 1;
}
// Index of the lowest set bit; `m` must be nonzero.
inline int lowest_bit(Mask m) { return __builtin_ctzll(m); }

class Arbiter {
 public:
  virtual ~Arbiter() = default;
  // Returns the granted input, or -1 if no input requests.  Bits at or
  // above num_inputs() must be clear.
  virtual int arbitrate(Mask requests) = 0;
  virtual int num_inputs() const = 0;

  // Checked adapter: one byte per input, nonzero = requesting.
  int arbitrate(const std::vector<std::uint8_t>& requests);
};

class RoundRobinArbiter final : public Arbiter {
 public:
  // `start` sets the initial highest-priority index; separable
  // allocators stagger it per input to avoid lockstep proposals.
  explicit RoundRobinArbiter(int inputs, int start = 0);
  using Arbiter::arbitrate;
  int arbitrate(Mask requests) override;
  int num_inputs() const override { return inputs_; }

 private:
  int inputs_;
  int next_;  // highest-priority index
};

class MatrixArbiter final : public Arbiter {
 public:
  explicit MatrixArbiter(int inputs);
  using Arbiter::arbitrate;
  int arbitrate(Mask requests) override;
  int num_inputs() const override { return inputs_; }

 private:
  int inputs_;
  // rank_[i]: input i's place in the priority order, 0 = highest.
  // Bytes at and past inputs_ stay 0, so the word-wide update leaves
  // them alone.
  alignas(8) std::array<std::uint8_t, kMaxRequesters> rank_{};
};

LAIN_HOT_PATH LAIN_NO_ALLOC inline int RoundRobinArbiter::arbitrate(
    Mask requests) {
  assert((requests & ~low_mask(inputs_)) == 0 && "request beyond inputs");
  if (requests == 0) return -1;
  // The first requester at or after the pointer, else the lowest.
  const Mask ahead = requests & (~Mask{0} << next_);
  const int idx = lowest_bit(ahead != 0 ? ahead : requests);
  next_ = idx + 1 == inputs_ ? 0 : idx + 1;
  return idx;
}

LAIN_HOT_PATH LAIN_NO_ALLOC inline int MatrixArbiter::arbitrate(
    Mask requests) {
  const int n = num_inputs();
  assert((requests & ~low_mask(n)) == 0 && "request beyond inputs");
  if (requests == 0) return -1;
  std::uint8_t* const rank = rank_.data();
  int winner = lowest_bit(requests);
  for (Mask m = requests & (requests - 1); m != 0; m &= m - 1) {
    const int i = lowest_bit(m);
    if (rank[i] < rank[winner]) winner = i;
  }
  // Least recently served: every input below the winner moves up one
  // place and the winner drops to the last.  Eight ranks per word:
  // ranks are below 64, so adding 0x7F - r to a byte never carries
  // into the next one and sets the byte's top bit exactly when its
  // rank exceeds r; that bit, shifted down, is the byte's decrement.
  constexpr std::uint64_t kLow = 0x0101010101010101ull;
  const std::uint8_t r = rank[winner];
  const std::uint64_t bias = kLow * static_cast<std::uint64_t>(0x7F - r);
  for (int w = 0; w < n; w += 8) {
    std::uint64_t word;
    std::memcpy(&word, rank + w, sizeof word);
    word -= ((word + bias) >> 7) & kLow;
    std::memcpy(rank + w, &word, sizeof word);
  }
  rank[winner] = static_cast<std::uint8_t>(n - 1);
  return winner;
}

}  // namespace lain::noc
