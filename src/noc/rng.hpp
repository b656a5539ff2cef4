// rng.hpp — deterministic xoshiro256** generator.
//
// The simulator must be bit-reproducible across runs and platforms;
// std::mt19937 + std::uniform_* distributions are not guaranteed to
// produce identical streams across standard libraries, so we carry our
// own generator and distributions.

#pragma once

#include <cmath>
#include <cstdint>

namespace lain::noc {

// Derives an independent, deterministic seed for stream `stream` of a
// base seed (SplitMix64 finalizer over the pair).  Sweep jobs use this
// to give every replicate its own reproducible stream: the derived
// seed depends only on (base, stream), never on thread scheduling.
constexpr std::uint64_t mix_seed(std::uint64_t base, std::uint64_t stream) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Rng::bernoulli(p) as one integer compare, for a p fixed across many
// draws.  next_double() scales the 53-bit integer m = next_u64() >> 11
// by 2^-53, which is exact, so next_double() < p holds exactly when
// m < ceil(p * 2^53).  Rng::bernoulli(BernoulliThreshold(p)) therefore
// draws what Rng::bernoulli(p) draws, bit for bit.
struct BernoulliThreshold {
  explicit BernoulliThreshold(double p = 0.0)
      : m(!(p > 0.0)  ? 0  // also NaN: next_double() < NaN is false
          : p >= 1.0 ? std::uint64_t{1} << 53
                     : static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53))) {
  }
  std::uint64_t m;  // the draw succeeds when (next_u64() >> 11) < m
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding.
    std::uint64_t x = seed;
    for (auto& s : s_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    return next_u64() % bound;  // modulo bias negligible for our bounds
  }

  bool bernoulli(double p) { return next_double() < p; }
  bool bernoulli(BernoulliThreshold t) { return (next_u64() >> 11) < t.m; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace lain::noc
