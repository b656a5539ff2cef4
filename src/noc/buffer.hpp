// buffer.hpp — per-VC input FIFO buffers.
//
// A VcBuffer is a fixed-capacity ring over caller-provided slots:
// credit flow control bounds the occupancy to the configured depth, so
// the buffer never needs to grow and push/pop never touch the heap.
// The router carves every input VC's ring out of one flit block, so a
// router's buffered flits sit together in memory.

#pragma once

#include <cassert>
#include <cstddef>
#include <functional>

#include "core/contracts.hpp"
#include "noc/flit.hpp"

namespace lain::noc {

// State of one virtual channel at an input port.
enum class VcState : std::int8_t {
  kIdle,        // no packet resident
  kRouting,     // head at front, output port not yet computed
  kWaitingVc,   // route known, waiting for an output VC
  kActive,      // output VC granted, flits may traverse
};

class VcBuffer {
 public:
  // A ring over slots[0, capacity_flits); the slots outlive the buffer.
  VcBuffer(Flit* slots, int capacity_flits);

  bool empty() const { return count_ == 0; }
  bool full() const { return count_ >= capacity_; }
  int size() const { return count_; }
  int capacity() const { return capacity_; }

  void push(const Flit& f);
  const Flit& front() const;
  Flit pop();

  // i-th buffered flit from the head (0 == front()); fault surgery
  // scans buffers for flits of lost packets with this.
  const Flit& peek(int i) const;

  // Fault surgery (stop-the-world, between steps): removes every flit
  // whose packet satisfies `lost`, compacting the ring in order.
  // Returns the removed count.  The caller owns the state-machine
  // repair (Router::fault_*).
  int remove_packets(const std::function<bool(PacketId)>& lost);

  // Packet resident at this VC's head of line (set when a head flit
  // establishes the VC, cleared when its tail departs).  Fault surgery
  // needs it to find the worm holding an output VC even when all of
  // the worm's flits are downstream of this buffer.
  PacketId packet = -1;
  int out_port = -1;  // route-computed output port
  int out_vc = -1;    // allocated downstream VC
  VcState state = VcState::kIdle;
  // Routing class under fault-aware routing: 0 = normal (XY /
  // dateline VCs), 1 = escape (reserved spanning-tree VC).  Set by
  // route compute; once a packet enters the escape class it stays
  // there at every downstream hop (acyclic class transition).
  std::int8_t route_class = 0;

 private:
  int capacity_;
  int head_ = 0;  // index of the oldest flit
  int count_ = 0;
  Flit* slots_;   // fixed ring storage, capacity_ slots
};

// The VC buffers of one input port: a view over `num_vcs` consecutive
// buffers owned elsewhere (the router's VC array).  vc() is unchecked
// in Release (the router's hot path indexes it every cycle); an
// out-of-range index is a caller bug, asserted in Debug/sanitizer
// builds.
class InputPort {
 public:
  InputPort() = default;
  InputPort(VcBuffer* vcs, int num_vcs);

  VcBuffer& vc(int v) {
    assert(v >= 0 && v < num_vcs() && "VC index out of range");
    return vcs_[v];
  }
  const VcBuffer& vc(int v) const {
    assert(v >= 0 && v < num_vcs() && "VC index out of range");
    return vcs_[v];
  }
  int num_vcs() const { return num_vcs_; }
  int total_occupancy() const;

 private:
  VcBuffer* vcs_ = nullptr;
  int num_vcs_ = 0;
};

// Defined here so the router's receive and traversal loops inline
// them.  Overflow/underflow means a credit-accounting bug upstream, not
// a runtime condition: asserts, so Release pays nothing.
LAIN_HOT_PATH LAIN_NO_ALLOC inline void VcBuffer::push(const Flit& f) {
  assert(!full() && "VC buffer overflow (credit bug)");
  int tail = head_ + count_;
  if (tail >= capacity_) tail -= capacity_;
  slots_[static_cast<size_t>(tail)] = f;
  ++count_;
}

LAIN_HOT_PATH LAIN_NO_ALLOC inline const Flit& VcBuffer::front() const {
  assert(!empty() && "front() on empty VC buffer");
  return slots_[static_cast<size_t>(head_)];
}

LAIN_HOT_PATH LAIN_NO_ALLOC inline Flit VcBuffer::pop() {
  assert(!empty() && "pop() on empty VC buffer");
  Flit f = slots_[static_cast<size_t>(head_)];
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  --count_;
  return f;
}

}  // namespace lain::noc
