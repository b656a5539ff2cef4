// stats.hpp — measurement collection.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "noc/types.hpp"

namespace lain::noc {

// Streaming scalar statistics.
//
// The simulator only feeds integer-valued samples (cycle counts,
// hops), so sum_ and sum2_ stay exact in a double far beyond any
// realistic run length.  That makes merge() associative and
// commutative bit-for-bit: a sharded simulation can accumulate
// per-shard and merge in any order, and the result is identical to
// one serial accumulator seeing the same samples.
class Accumulator {
 public:
  void add(double x) {
    sum_ += x;
    sum2_ += x * x;
    ++n_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  // Folds another accumulator's samples into this one.
  void merge(const Accumulator& o) {
    sum_ += o.sum_;
    sum2_ += o.sum2_;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double variance() const {
    if (n_ < 2) return 0.0;
    const double m = mean();
    return sum2_ / static_cast<double>(n_) - m * m;
  }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  double sum_ = 0.0, sum2_ = 0.0;
  double min_ = 1e300, max_ = -1e300;
  std::int64_t n_ = 0;
};

// Integer histogram (used for idle-run lengths, latencies).
class Histogram {
 public:
  void add(std::int64_t value) { ++bins_[value]; ++n_; }
  void merge(const Histogram& o) {
    for (const auto& [v, c] : o.bins_) bins_[v] += c;
    n_ += o.n_;
  }
  std::int64_t count() const { return n_; }
  const std::map<std::int64_t, std::int64_t>& bins() const { return bins_; }
  double mean() const;
  // Smallest value v such that P[X <= v] >= q: the nearest-rank
  // percentile, the value at rank ceil(q * count()).
  std::int64_t percentile(double q) const;
  // Fraction of samples >= threshold.
  double fraction_at_least(std::int64_t threshold) const;

 private:
  std::map<std::int64_t, std::int64_t> bins_;
  std::int64_t n_ = 0;
};

// Network-level measurement results.
struct SimStats {
  std::int64_t packets_injected = 0;
  std::int64_t packets_ejected = 0;
  std::int64_t flits_injected = 0;
  std::int64_t flits_ejected = 0;
  // Fault-injection degradation counters (zero without faults).  A
  // purged packet counts its full flit length as lost wherever its
  // flits sat; a retransmission re-counts the packet as injected, so
  // the conservation law  injected == ejected + lost + in-flight
  // holds at every instant and exactly at drain.
  // packets_unreachable_dropped counts packets abandoned (or never
  // injected) because no route to the destination exists under
  // --allow-partition; those are included in packets_lost only when
  // they had already been injected.
  std::int64_t packets_lost = 0;
  std::int64_t flits_lost = 0;
  std::int64_t packets_retransmitted = 0;
  std::int64_t packets_unreachable_dropped = 0;
  Cycle measured_cycles = 0;
  int num_nodes = 0;
  Accumulator packet_latency;   // creation -> tail ejection
  Accumulator network_latency;  // injection -> tail ejection
  Accumulator hops;
  Histogram latency_hist;

  double throughput_flits_per_node_cycle() const {
    if (measured_cycles <= 0 || num_nodes <= 0) return 0.0;
    return static_cast<double>(flits_ejected) /
           (static_cast<double>(measured_cycles) * num_nodes);
  }

  // Folds another shard's measurement slice into this one.  Counters
  // add, accumulators merge exactly (integer-valued samples), and the
  // fabric-wide fields (measured_cycles, num_nodes) are left alone —
  // the kernel sets them once for the whole run.
  void merge(const SimStats& o) {
    packets_injected += o.packets_injected;
    packets_ejected += o.packets_ejected;
    flits_injected += o.flits_injected;
    flits_ejected += o.flits_ejected;
    packets_lost += o.packets_lost;
    flits_lost += o.flits_lost;
    packets_retransmitted += o.packets_retransmitted;
    packets_unreachable_dropped += o.packets_unreachable_dropped;
    packet_latency.merge(o.packet_latency);
    network_latency.merge(o.network_latency);
    hops.merge(o.hops);
    latency_hist.merge(o.latency_hist);
  }
};

}  // namespace lain::noc
