// floorplan.hpp — matrix-crossbar wire geometry.
//
// The crossbar is laid out as a matrix: input row wires cross output
// column wires, with a pass-transistor mux cell at each (input,
// output, bit) crossing.  Wire lengths therefore scale with
// ports x flit_bits x pitch.  Segmented schemes (Fig 3) split each row
// and column wire into `ports` segments separated by isolation
// switches; a path from input i to output j then traverses only the
// segments between the port and the crossing, which both shortens the
// switched wire (dynamic savings) and lets unused segments sleep
// (leakage savings).

#pragma once

#include "tech/bptm.hpp"
#include "xbar/spec.hpp"

namespace lain::xbar {

class Floorplan {
 public:
  Floorplan(const CrossbarSpec& spec, const tech::TechNode& node);

  // Full edge length of the crossbar matrix (one row/column wire).
  double span_m() const { return span_m_; }
  // Length of one segment when the wire is split into `ports` pieces.
  double segment_m() const { return span_m_ / ports_; }

  int ports() const { return ports_; }

  // Number of input-row segments traversed from input port `i` (0-based,
  // ports on the left edge) to the crossing at output column `j`.
  int input_segments_traversed(int j) const { return j + 1; }
  // Number of output-column segments traversed from the crossing at
  // input row `i` to the output port (bottom edge).
  int output_segments_traversed(int i) const { return ports_ - i; }

  // Average fraction of a row/column wire traversed under uniform
  // (input, output) selection, for the idealized per-port segmentation
  // (used by the Fig 3 path-enumeration bench): (ports+1) / (2*ports).
  double avg_traversed_fraction() const {
    return (ports_ + 1.0) / (2.0 * ports_);
  }

  // The implemented segmentation is two-way (one isolation switch at
  // mid-span; Fig 3's "path 1" stays in the near half, "path 2"
  // crosses the boundary).  Under uniform port selection the near
  // (ports+1)/2 crossings switch only half the wire:
  double two_way_traversed_fraction() const {
    const int near = (ports_ + 1) / 2;
    const int far = ports_ - near;
    return (near * 0.5 + far * 1.0) / ports_;
  }

  // Per-unit-length electricals of the crossbar wires.
  const tech::WireRC& wire() const { return wire_; }

  // Lumped capacitance of a full row/column wire (F).
  double full_wire_cap_f() const { return wire_.c_per_m() * span_m_; }
  double full_wire_res_ohm() const { return wire_.r_per_m * span_m_; }

 private:
  int ports_;
  double span_m_;
  tech::WireRC wire_;
};

}  // namespace lain::xbar
