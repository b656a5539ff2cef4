// topology.hpp — fabric construction: routers, NICs and channels
// wired as a k-ary 2D mesh or torus.
//
// Routers, NICs and links are stored by value, each in one block in
// node / link order, reserved to their exact counts before any is
// wired: components hold pointers to each other's channels, so none
// may move once built.

#pragma once

#include <vector>

#include "noc/nic.hpp"
#include "noc/router.hpp"

namespace lain::noc {

class Network {
 public:
  explicit Network(const SimConfig& cfg);

  int num_nodes() const { return cfg_.num_nodes(); }
  Router& router(NodeId n) { return routers_.at(static_cast<size_t>(n)); }
  const Router& router(NodeId n) const {
    return routers_.at(static_cast<size_t>(n));
  }
  Nic& nic(NodeId n) { return nics_.at(static_cast<size_t>(n)); }
  const Nic& nic(NodeId n) const { return nics_.at(static_cast<size_t>(n)); }

  // Advances every channel pipeline by one cycle (call after all
  // routers and NICs have ticked).
  void tick_channels();

  // Advances both channels of link i.  The exchange phase ticks a link
  // whole when its two ends share a shard.
  int num_links() const { return static_cast<int>(links_.size()); }
  LAIN_HOT_PATH LAIN_NO_ALLOC void tick_link(int i) {
    Link& l = links_[static_cast<size_t>(i)];
    l.flits.tick();
    l.credits.tick();
  }

  // Channel 2*i carries link i's flits and channel 2*i + 1 its credits.
  // The exchange phase of the shard that consumes a channel ticks it:
  // the owner's shard a flit channel, the source's shard a credit one.
  static constexpr int channel_id(int link, bool credit) {
    return 2 * link + (credit ? 1 : 0);
  }
  static constexpr int channel_link(int c) { return c >> 1; }
  static constexpr bool is_credit_channel(int c) { return (c & 1) != 0; }
  // Advances one channel; reports whether it moved an item (admitted a
  // flit into the pipe or applied a credit).  Only a flit admission
  // wakes the consumer in the event-driven kernel: a credit is already
  // in its consumer's counter.
  LAIN_HOT_PATH LAIN_NO_ALLOC bool tick_channel(int c) {
    Link& l = links_[static_cast<size_t>(channel_link(c))];
    return is_credit_channel(c) ? l.credits.tick() : l.flits.tick();
  }

  // The node whose router/NIC consumes this link's flits (and returns
  // its credits).
  NodeId link_owner(int i) const {
    return link_owners_.at(static_cast<size_t>(i));
  }
  // The node whose router/NIC produces this link's flits.  A link is
  // a shard-boundary link when its source and owner land in different
  // shards — the quantity the partition planner minimizes.  NIC
  // injection/ejection links have source == owner (never boundary).
  NodeId link_source(int i) const {
    return link_sources_.at(static_cast<size_t>(i));
  }
  // What sits at each end of the link — the event-driven kernel needs
  // this to route flit-admission wake-ups to the right component:
  //   kInjection  NIC(source) -> router(owner) flits, credits back
  //   kEjection   router(source) -> NIC(owner... same node) flits
  //   kRouter     router(source) -> router(owner) flits
  enum class LinkKind : std::uint8_t { kInjection, kEjection, kRouter };
  LinkKind link_kind(int i) const {
    return link_kinds_.at(static_cast<size_t>(i));
  }

  // Output direction at link_source for inter-router links (kLocal for
  // the NIC injection/ejection links).  The fault layer uses this to
  // map a link onto the source router's output port.
  Dir link_dir(int i) const { return link_dirs_.at(static_cast<size_t>(i)); }
  // Inter-router link leaving `from` in direction `d`, or -1 when the
  // mesh edge does not exist.  Unambiguous even on a radix-2 torus
  // (parallel opposite-direction links differ in `d`).
  int link_at(NodeId from, Dir d) const {
    return link_at_.at(static_cast<size_t>(from) * 4u +
                       static_cast<size_t>(port(d)));
  }
  // The opposite-direction channel of the same physical link (fault
  // kills take out both), or -1 for NIC-local links.
  int reverse_link(int i) const;

  // Fault-surgery channel access (stop-the-world, between steps only;
  // see FlitChannel::fault_purge).
  FlitChannel& link_flits(int i) {
    return links_.at(static_cast<size_t>(i)).flits;
  }

  // --- The credit invariant (between steps only) ----------------------
  //
  // No credit is in flight between steps: the exchange phase adds every
  // returned credit to its consumer's counter.  So at each step
  // boundary the producer of a live link holds, for every VC, the
  // downstream slots its flits have not filled:
  //   depth - downstream occupancy(vc) - flits of vc in the link's pipe,
  // where an ejection link's NIC sink has no occupancy.  free_slots()
  // evaluates that formula, producer_credits() reads what the producer
  // holds, and fault_set_credits() overwrites it (fault surgery).
  int free_slots(int link, int vc) const;
  int producer_credits(int link, int vc) const;
  void fault_set_credits(int link, int vc, int n);

  // Flits resident anywhere in the fabric (buffers + channels).
  int flits_in_flight() const;

  const SimConfig& config() const { return cfg_; }

  // Racecheck tagging: stamps every router, NIC and channel with its
  // owning shard from a node->shard map (PartitionPlan::shard_of).
  // Flit channels are produced by the link source and consumed and
  // ticked by the link owner; credit channels flow the opposite way
  // (the owner produces, and the source's shard ticks each credit into
  // the source's counters).  No-op unless built with LAIN_RACECHECK.
  void rc_tag_shards(const std::vector<int>& shard_of);

 private:
  // Never copied; movable only so std::vector can hold it (see the
  // file comment).  Cache-line aligned, so links owned by different
  // shards never share a line.
  struct alignas(64) Link {
    FlitChannel flits;
    CreditChannel credits;
    Link() = default;
    Link(const Link&) = delete;
    Link& operator=(const Link&) = delete;
    Link(Link&&) = default;
    Link& operator=(Link&&) = delete;
  };

  SimConfig cfg_;
  std::vector<Router> routers_;
  std::vector<Nic> nics_;
  std::vector<Link> links_;
  std::vector<NodeId> link_owners_;   // consuming endpoint per link
  std::vector<NodeId> link_sources_;  // producing endpoint per link
  std::vector<LinkKind> link_kinds_;  // what each endpoint is
  std::vector<Dir> link_dirs_;        // output dir at source (kLocal: NIC)
  std::vector<int> link_at_;          // node*4+dir -> inter-router link

  Link* make_link(NodeId source, NodeId owner,
                  LinkKind kind = LinkKind::kRouter, Dir dir = Dir::kLocal);
  void wire_mesh();
};

}  // namespace lain::noc
