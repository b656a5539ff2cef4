// test_arbitration_reference.cpp — the mask arbiters and allocator
// grant exactly what the byte-scan algorithms they replaced granted.
//
// The reference model below is the earlier byte-scan implementation:
// round-robin and least-recently-served matrix arbiters that scan one
// request byte per input (the matrix arbiter over an explicit n x n
// priority matrix), and a separable allocator that runs every input's
// round-robin and builds a byte request vector per output.  Reference
// and production objects see the same seeded random request stream,
// from empty through single-requester to full sets, and must grant
// identically in every round; since both carry state across rounds,
// this also pins how the priorities evolve.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "noc/allocator.hpp"
#include "noc/arbiter.hpp"

namespace lain::noc {
namespace {

constexpr int kRounds = 10000;

class RefRoundRobin {
 public:
  explicit RefRoundRobin(int inputs, int start = 0)
      : inputs_(inputs), next_(start) {}
  int arbitrate(const std::uint8_t* requests) {
    for (int i = 0; i < inputs_; ++i) {
      int idx = next_ + i;
      if (idx >= inputs_) idx -= inputs_;
      if (requests[idx]) {
        next_ = idx + 1 == inputs_ ? 0 : idx + 1;
        return idx;
      }
    }
    return -1;
  }

 private:
  int inputs_;
  int next_;
};

class RefMatrix {
 public:
  explicit RefMatrix(int inputs)
      : inputs_(inputs),
        m_(static_cast<size_t>(inputs) * static_cast<size_t>(inputs), false) {
    for (int a = 0; a < inputs; ++a) {
      for (int b = a + 1; b < inputs; ++b) m_[cell(a, b)] = true;
    }
  }
  int arbitrate(const std::uint8_t* requests) {
    int winner = -1;
    for (int a = 0; a < inputs_ && winner < 0; ++a) {
      if (!requests[a]) continue;
      bool beats_all = true;
      for (int b = 0; b < inputs_; ++b) {
        if (b == a || !requests[b]) continue;
        if (!m_[cell(a, b)]) {
          beats_all = false;
          break;
        }
      }
      if (beats_all) winner = a;
    }
    if (winner >= 0) {
      // Winner becomes lowest priority: clear its row, set its column.
      for (int b = 0; b < inputs_; ++b) {
        if (b == winner) continue;
        m_[cell(winner, b)] = false;
        m_[cell(b, winner)] = true;
      }
    }
    return winner;
  }

 private:
  size_t cell(int a, int b) const {
    return static_cast<size_t>(a) * static_cast<size_t>(inputs_) +
           static_cast<size_t>(b);
  }
  int inputs_;
  std::vector<bool> m_;
};

class RefSeparable {
 public:
  RefSeparable(int inputs, int outputs)
      : inputs_(inputs),
        outputs_(outputs),
        proposal_(static_cast<size_t>(inputs), -1),
        out_req_(static_cast<size_t>(inputs), 0) {
    for (int i = 0; i < inputs; ++i) {
      input_stage_.emplace_back(outputs, i % outputs);
    }
    for (int o = 0; o < outputs; ++o) output_stage_.emplace_back(inputs);
  }
  // requests: row-major inputs x outputs bytes.
  void allocate(const std::uint8_t* requests, int* grant) {
    for (int i = 0; i < inputs_; ++i) {
      proposal_[static_cast<size_t>(i)] =
          input_stage_[static_cast<size_t>(i)].arbitrate(
              requests + static_cast<size_t>(i * outputs_));
      grant[i] = -1;
    }
    for (int o = 0; o < outputs_; ++o) {
      bool any = false;
      for (int i = 0; i < inputs_; ++i) {
        const bool wants = proposal_[static_cast<size_t>(i)] == o;
        out_req_[static_cast<size_t>(i)] = wants ? 1 : 0;
        any |= wants;
      }
      if (!any) continue;
      const int winner =
          output_stage_[static_cast<size_t>(o)].arbitrate(out_req_.data());
      if (winner >= 0) grant[winner] = o;
    }
  }

 private:
  int inputs_;
  int outputs_;
  std::vector<RefRoundRobin> input_stage_;
  std::vector<RefMatrix> output_stage_;
  std::vector<int> proposal_;
  std::vector<std::uint8_t> out_req_;
};

// Seeded request stream: each round draws a density, from empty and
// single-requester sets up to every input requesting, and fills `bytes`
// and the equivalent mask together.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}

  Mask next(int n, std::uint8_t* bytes) {
    static constexpr double kDensities[] = {0.0, 0.02, 0.1, 0.3,
                                            0.5, 0.8,  1.0};
    std::uniform_int_distribution<int> pick(0, 7);
    const int d = pick(rng_);
    Mask m = 0;
    if (d == 7) {  // exactly one requester
      const int i = std::uniform_int_distribution<int>(0, n - 1)(rng_);
      m = mask_bit(i);
    } else {
      std::bernoulli_distribution on(kDensities[d]);
      for (int i = 0; i < n; ++i) {
        if (on(rng_)) m |= mask_bit(i);
      }
    }
    for (int i = 0; i < n; ++i) bytes[i] = (m >> i) & 1 ? 1 : 0;
    return m;
  }

 private:
  std::mt19937_64 rng_;
};

const int kArbiterSizes[] = {1, 2, 5, 10, 63, 64};

TEST(ArbitrationReference, RoundRobinGrantsMatchByteScan) {
  for (const int n : kArbiterSizes) {
    for (int start = 0; start < n; start += n / 3 + 1) {
      RefRoundRobin ref(n, start);
      RoundRobinArbiter arb(n, start);
      RequestStream stream(static_cast<std::uint64_t>(1000 * n + start));
      std::vector<std::uint8_t> bytes(static_cast<size_t>(n));
      for (int r = 0; r < kRounds; ++r) {
        const Mask m = stream.next(n, bytes.data());
        ASSERT_EQ(arb.arbitrate(m), ref.arbitrate(bytes.data()))
            << "inputs " << n << " start " << start << " round " << r;
      }
    }
  }
}

TEST(ArbitrationReference, MatrixGrantsMatchPriorityMatrix) {
  for (const int n : kArbiterSizes) {
    RefMatrix ref(n);
    MatrixArbiter arb(n);
    RequestStream stream(static_cast<std::uint64_t>(2000 + n));
    std::vector<std::uint8_t> bytes(static_cast<size_t>(n));
    for (int r = 0; r < kRounds; ++r) {
      const Mask m = stream.next(n, bytes.data());
      ASSERT_EQ(arb.arbitrate(m), ref.arbitrate(bytes.data()))
          << "inputs " << n << " round " << r;
    }
  }
}

TEST(ArbitrationReference, SeparableGrantsMatchTwoStageScan) {
  for (const int n : {5, 10, 60}) {
    RefSeparable ref(n, n);
    SeparableAllocator alloc(n, n);
    RequestStream stream(static_cast<std::uint64_t>(3000 + n));
    std::vector<std::uint8_t> bytes(static_cast<size_t>(n * n));
    std::vector<Mask> rows(static_cast<size_t>(n));
    std::vector<int> want(static_cast<size_t>(n));
    std::vector<int> got(static_cast<size_t>(n));
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < n; ++i) {
        rows[static_cast<size_t>(i)] =
            stream.next(n, bytes.data() + static_cast<size_t>(i * n));
      }
      ref.allocate(bytes.data(), want.data());
      alloc.allocate(rows.data(), got.data());
      ASSERT_EQ(got, want) << n << "x" << n << " round " << r;
    }
  }
}

TEST(ArbitrationReference, MaskWidthBoundsTheInputs) {
  EXPECT_NO_THROW(RoundRobinArbiter(64));
  EXPECT_NO_THROW(MatrixArbiter(64));
  EXPECT_THROW(RoundRobinArbiter(65), std::invalid_argument);
  EXPECT_THROW(MatrixArbiter(65), std::invalid_argument);
  EXPECT_NO_THROW(SeparableAllocator(64, 64));
  EXPECT_THROW(SeparableAllocator(65, 4), std::invalid_argument);
  EXPECT_THROW(SeparableAllocator(4, 65), std::invalid_argument);
}

}  // namespace
}  // namespace lain::noc
