// allocator.hpp — separable input-first allocators.
//
// Used for both VC allocation (requesters = input VCs, resources =
// output VCs) and switch allocation (requesters = input ports,
// resources = output ports).  Stage 1 picks one request per input
// (round-robin), stage 2 arbitrates per output (matrix arbiter).
//
// The hot-path entry point takes one request Mask per input (bit o =
// wants output o) and a grant array of one int per input, both owned
// by the caller.  Stage 1 runs only for inputs with a request and
// collects, in the same pass, a mask of proposing inputs per output;
// stage 2 arbitrates only the outputs with a proposer.  The router
// keeps both buffers as cycle-reused members and the per-output
// scratch is preallocated here, so a steady-state allocation performs
// zero heap allocations.

#pragma once

#include <cstdint>
#include <vector>

#include "noc/arbiter.hpp"

namespace lain::noc {

class SeparableAllocator {
 public:
  // 1..kMaxRequesters inputs and outputs.
  SeparableAllocator(int inputs, int outputs);

  // requests[i] bit o set means input i wants output o (bits at or
  // above outputs() clear).  Fills grant[i] with the granted output
  // for input i, or -1.  Each output is granted to at most one input
  // and each input receives at most one output.  Both buffers are
  // caller-owned (`requests` holds inputs() masks, `grant` inputs()
  // ints) and may be reused across cycles; nothing is allocated on
  // this path.
  void allocate(const Mask* requests, int* grant);

  // Checked adapter (tests, tools): a row-major inputs x outputs byte
  // matrix, nonzero = request; returns a fresh grant vector.
  std::vector<int> allocate(const std::vector<std::uint8_t>& requests);

  int inputs() const { return inputs_; }
  int outputs() const { return outputs_; }

 private:
  int inputs_;
  int outputs_;
  std::vector<RoundRobinArbiter> input_stage_;
  std::vector<MatrixArbiter> output_stage_;
  // Per output: the inputs proposing it.  All zero between calls.
  std::vector<Mask> proposers_;
};

}  // namespace lain::noc
