#include "noc/topology.hpp"

#include <stdexcept>

namespace lain::noc {

Network::Network(const SimConfig& cfg) : cfg_(cfg) {
  cfg.validate();
  const int n = cfg.num_nodes();
  routers_.reserve(static_cast<size_t>(n));
  nics_.reserve(static_cast<size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    routers_.emplace_back(i, cfg);
    nics_.emplace_back(i, cfg);
  }
  wire_mesh();
}

Network::Link* Network::make_link(NodeId source, NodeId owner, LinkKind kind,
                                  Dir dir) {
  // Growing past the reservation would move every wired link.
  if (links_.size() == links_.capacity()) {
    throw std::logic_error("Network: more links than reserved");
  }
  links_.emplace_back();
  link_sources_.push_back(source);
  link_owners_.push_back(owner);
  link_kinds_.push_back(kind);
  link_dirs_.push_back(dir);
  if (kind == LinkKind::kRouter) {
    link_at_[static_cast<size_t>(source) * 4u +
             static_cast<size_t>(port(dir))] =
        static_cast<int>(links_.size()) - 1;
  }
  return &links_.back();
}

int Network::reverse_link(int i) const {
  if (link_kind(i) != LinkKind::kRouter) return -1;
  return link_at(link_owner(i), opposite(link_dir(i)));
}

void Network::wire_mesh() {
  const RouteContext ctx = cfg_.route_context();
  const bool torus = cfg_.topology == TopologyKind::kTorus;
  const size_t nodes = static_cast<size_t>(cfg_.num_nodes());
  const size_t rx = static_cast<size_t>(cfg_.radix_x);
  const size_t ry = static_cast<size_t>(cfg_.radix_y);
  // Two NIC links per node, and one link per (router, direction): all
  // four on a torus, only those inside the edges on a mesh.
  const size_t router_links =
      torus ? 4 * nodes : 2 * ((rx - 1) * ry + rx * (ry - 1));
  links_.reserve(2 * nodes + router_links);
  link_at_.assign(nodes * 4u, -1);

  // Local port: NIC <-> router.  Both endpoints are the same node, so
  // these links never cross a shard boundary.
  for (NodeId i = 0; i < cfg_.num_nodes(); ++i) {
    // inj: NIC -> router flits, router -> NIC credits.
    // ej:  router -> NIC flits, NIC -> router credits.
    Link* inj = make_link(i, i, LinkKind::kInjection);
    Link* ej = make_link(i, i, LinkKind::kEjection);
    Router& r = routers_[static_cast<size_t>(i)];
    r.connect_input(Dir::kLocal, &inj->flits, &inj->credits);
    r.connect_output(Dir::kLocal, &ej->flits, &ej->credits);
    nics_[static_cast<size_t>(i)].connect(&inj->flits, &inj->credits,
                                          &ej->flits, &ej->credits);
  }

  // Inter-router links: one directed link per (router, direction).
  auto connect_pair = [&](NodeId from, Dir out_dir, NodeId to) {
    Link* l = make_link(from, to, LinkKind::kRouter, out_dir);
    routers_[static_cast<size_t>(from)].connect_output(out_dir, &l->flits,
                                                       &l->credits);
    routers_[static_cast<size_t>(to)].connect_input(opposite(out_dir),
                                                    &l->flits, &l->credits);
  };

  for (int y = 0; y < cfg_.radix_y; ++y) {
    for (int x = 0; x < cfg_.radix_x; ++x) {
      const NodeId here = node_of(MeshCoord{x, y}, ctx);
      // East.
      if (x + 1 < cfg_.radix_x) {
        connect_pair(here, Dir::kEast, node_of(MeshCoord{x + 1, y}, ctx));
      } else if (torus) {
        connect_pair(here, Dir::kEast, node_of(MeshCoord{0, y}, ctx));
      }
      // West.
      if (x > 0) {
        connect_pair(here, Dir::kWest, node_of(MeshCoord{x - 1, y}, ctx));
      } else if (torus) {
        connect_pair(here, Dir::kWest,
                     node_of(MeshCoord{cfg_.radix_x - 1, y}, ctx));
      }
      // South.
      if (y + 1 < cfg_.radix_y) {
        connect_pair(here, Dir::kSouth, node_of(MeshCoord{x, y + 1}, ctx));
      } else if (torus) {
        connect_pair(here, Dir::kSouth, node_of(MeshCoord{x, 0}, ctx));
      }
      // North.
      if (y > 0) {
        connect_pair(here, Dir::kNorth, node_of(MeshCoord{x, y - 1}, ctx));
      } else if (torus) {
        connect_pair(here, Dir::kNorth,
                     node_of(MeshCoord{x, cfg_.radix_y - 1}, ctx));
      }
    }
  }
}

void Network::tick_channels() {
  for (int i = 0; i < num_links(); ++i) tick_link(i);
}

#if LAIN_RACECHECK
void Network::rc_tag_shards(const std::vector<int>& shard_of) {
  auto shard = [&](NodeId n) { return shard_of.at(static_cast<size_t>(n)); };
  for (NodeId n = 0; n < cfg_.num_nodes(); ++n) {
    routers_[static_cast<size_t>(n)].rc_set_owner(shard(n));
    nics_[static_cast<size_t>(n)].rc_set_owner(shard(n));
  }
  for (int i = 0; i < num_links(); ++i) {
    const int src = shard(link_source(i));
    const int own = shard(link_owner(i));
    Link& l = links_[static_cast<size_t>(i)];
    l.flits.rc_set_owners(src, own, static_cast<int>(link_owner(i)),
                          "flit channel");
    l.credits.rc_set_owners(own, src, static_cast<int>(link_source(i)),
                            "credit channel");
  }
}
#else
void Network::rc_tag_shards(const std::vector<int>&) {}
#endif

int Network::free_slots(int link, int vc) const {
  int slots = cfg_.vc_depth_flits;
  links_.at(static_cast<size_t>(link)).flits.fault_for_each(
      [&](const Flit& f) { slots -= f.vc == vc ? 1 : 0; });
  if (link_kind(link) != LinkKind::kEjection) {
    // The owner's router buffers the link's flits at the input facing
    // back along it (the local input for an injection link).
    const InputPort& in =
        router(link_owner(link)).input(port(opposite(link_dir(link))));
    slots -= in.vc(vc).size();
  }
  return slots;
}

int Network::producer_credits(int link, int vc) const {
  if (link_kind(link) == LinkKind::kInjection) {
    return nic(link_source(link)).credits(vc);
  }
  return router(link_source(link)).credits(port(link_dir(link)), vc);
}

void Network::fault_set_credits(int link, int vc, int n) {
  if (link_kind(link) == LinkKind::kInjection) {
    nic(link_source(link)).fault_set_credit(vc, n);
  } else {
    router(link_source(link)).fault_set_credit(port(link_dir(link)), vc, n);
  }
}

int Network::flits_in_flight() const {
  int n = 0;
  for (const Router& r : routers_) n += r.occupancy();
  for (const Link& l : links_) n += l.flits.in_flight_count();
  return n;
}

}  // namespace lain::noc
