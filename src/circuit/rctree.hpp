// rctree.hpp — RC trees and Elmore delay.
//
// Wires are represented as distributed RC (chains of pi segments built
// from the BPTM per-unit-length values); drivers contribute their
// effective resistance at the root.  The Elmore metric
//
//   tau(target) = sum_k C_k * R(path(root->k) ∩ path(root->target))
//
// is the standard first moment and the delay model used throughout the
// characterization (50 % point = ln 2 * tau ≈ 0.69 tau).

#pragma once

#include <vector>

#include "tech/bptm.hpp"

namespace lain::circuit {

class RCTree {
 public:
  // The tree is created with a root node (index 0) carrying zero cap.
  RCTree();

  // Adds a child node connected to `parent` through `res_ohm`, with
  // node capacitance `cap_f`.  Returns the new node's index.
  int add_child(int parent, double res_ohm, double cap_f);

  // Adds lumped capacitance to an existing node (receiver gates,
  // junction caps...).
  void add_cap(int node, double cap_f);

  // Appends a distributed wire (chain of `segments` pi sections) from
  // `from`; returns the far-end node index.
  int add_wire(int from, const tech::WireRC& rc, double length_m,
               int segments = 8);

  int node_count() const { return static_cast<int>(parent_.size()); }
  double total_cap_f() const;

  // Elmore time constant from a virtual driver with resistance
  // `rdrv_ohm` at the root to `target` (seconds).
  double elmore_tau_s(int target, double rdrv_ohm) const;

  // 50 % delay = ln(2) * tau.
  double elmore_delay_s(int target, double rdrv_ohm) const;

 private:
  std::vector<int> parent_;    // parent_[0] = -1
  std::vector<double> redge_;  // resistance of edge to parent
  std::vector<double> cap_;    // node capacitance
};

}  // namespace lain::circuit
