#include "noc/buffer.hpp"

#include <cassert>
#include <stdexcept>

namespace lain::noc {

VcBuffer::VcBuffer(Flit* slots, int capacity_flits)
    : capacity_(capacity_flits), slots_(slots) {
  if (capacity_flits < 1) {
    throw std::invalid_argument("VC buffer capacity must be >= 1");
  }
}

const Flit& VcBuffer::peek(int i) const {
  assert(i >= 0 && i < count_ && "peek() out of range");
  int idx = head_ + i;
  if (idx >= capacity_) idx -= capacity_;
  return slots_[static_cast<size_t>(idx)];
}

int VcBuffer::remove_packets(const std::function<bool(PacketId)>& lost) {
  int removed = 0;
  int kept = 0;
  for (int i = 0; i < count_; ++i) {
    int idx = head_ + i;
    if (idx >= capacity_) idx -= capacity_;
    const Flit f = slots_[static_cast<size_t>(idx)];
    if (lost(f.packet)) {
      ++removed;
      continue;
    }
    int out = head_ + kept;
    if (out >= capacity_) out -= capacity_;
    slots_[static_cast<size_t>(out)] = f;
    ++kept;
  }
  count_ = kept;
  return removed;
}

InputPort::InputPort(VcBuffer* vcs, int num_vcs)
    : vcs_(vcs), num_vcs_(num_vcs) {
  if (num_vcs < 1) throw std::invalid_argument("need >= 1 VC");
}

int InputPort::total_occupancy() const {
  int n = 0;
  for (int v = 0; v < num_vcs_; ++v) n += vcs_[v].size();
  return n;
}

}  // namespace lain::noc
