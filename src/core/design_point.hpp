// design_point.hpp — (scheme, technology, spec) -> characterization.
//
// Thin facade over the process-wide characterization cache
// (LainContext::global()) for callers that take no context —
// make_table1 and the breakeven policy check: two DesignPoints at the
// same spec hit the same cached objects.
//
// The global cache never evicts, so entries live for the process —
// the right trade for sweeps that revisit a bounded spec family.  A
// tool enumerating an unbounded stream of distinct specs should use a
// scoped LainContext's cache instead of DesignPoint.

#pragma once

#include <vector>

#include "xbar/characterize.hpp"

namespace lain::core {

class DesignPoint {
 public:
  explicit DesignPoint(const xbar::CrossbarSpec& spec);

  const xbar::CrossbarSpec& spec() const { return spec_; }

  // Characterization for one scheme (computed once per distinct
  // (spec, scheme) pair process-wide, cached; reference stable).
  const xbar::Characterization& of(xbar::Scheme scheme);

  // All five schemes, SC first (the order Table 1 uses).
  std::vector<xbar::Characterization> all();

 private:
  xbar::CrossbarSpec spec_;
};

}  // namespace lain::core
