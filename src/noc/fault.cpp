#include "noc/fault.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "noc/topology.hpp"

namespace lain::noc {
namespace {

// Dedicated RNG streams, independent of the per-node traffic streams
// (which use small node ids as the stream index).
constexpr std::uint64_t kFaultSeedStream = 0xFA175EEDull;
constexpr std::uint64_t kFaultPlanStream = 0xFA1791AEull;
constexpr std::uint64_t kRetxStream = 0xFA170E78ull;

// Bounded exponential retransmit backoff: attempt k waits
// kRetxBase << min(k-1, kRetxShiftCap) cycles plus a jitter draw in
// [0, kRetxBase) — enough spread that simultaneous losses do not
// re-collide on the repaired path, bounded so a flapping link cannot
// push a packet past the drain limit.
constexpr Cycle kRetxBase = 16;
constexpr int kRetxShiftCap = 5;

std::uint64_t resolved_fault_seed(const SimConfig& cfg) {
  return cfg.fault.seed != 0 ? cfg.fault.seed
                             : mix_seed(cfg.seed, kFaultSeedStream);
}

Cycle resolved_fault_at(const SimConfig& cfg) {
  return cfg.fault.at > 0 ? cfg.fault.at : cfg.warmup_cycles;
}

bool event_order(const FaultEvent& a, const FaultEvent& b) {
  return std::tie(a.at, a.kind, a.node_a, a.link) <
         std::tie(b.at, b.kind, b.node_a, b.link);
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLinkUp: return "link_up";
    case FaultKind::kRouterDown: return "router_down";
  }
  return "?";
}

// --- FaultPlan -------------------------------------------------------

FaultPlan FaultPlan::build(const SimConfig& cfg, const Network& net) {
  FaultPlan plan;
  if (!cfg.fault.enabled()) return plan;
  const Cycle at = resolved_fault_at(cfg);
  Rng rng(mix_seed(resolved_fault_seed(cfg), kFaultPlanStream));

  // Canonical physical links: the lower-index directed channel of each
  // inter-router pair (a kill always takes out both directions).
  std::vector<int> canon;
  for (int i = 0; i < net.num_links(); ++i) {
    if (net.reverse_link(i) > i) canon.push_back(i);
  }
  if (cfg.fault.links > static_cast<int>(canon.size())) {
    throw std::invalid_argument(
        "fault-links " + std::to_string(cfg.fault.links) + " exceeds the " +
        std::to_string(canon.size()) + " physical links of this fabric");
  }
  if (cfg.fault.routers > cfg.num_nodes()) {
    throw std::invalid_argument(
        "fault-routers " + std::to_string(cfg.fault.routers) +
        " exceeds the " + std::to_string(cfg.num_nodes()) + " routers");
  }

  // Partial Fisher–Yates over the canonical links, then the routers —
  // the pick depends only on (fault seed, fabric shape).
  for (int k = 0; k < cfg.fault.links; ++k) {
    const std::size_t j =
        static_cast<std::size_t>(k) +
        static_cast<std::size_t>(rng.next_below(canon.size() -
                                                static_cast<std::size_t>(k)));
    std::swap(canon[static_cast<std::size_t>(k)], canon[j]);
    const int li = canon[static_cast<std::size_t>(k)];
    FaultEvent down;
    down.at = at;
    down.kind = FaultKind::kLinkDown;
    down.link = li;
    down.node_a = net.link_source(li);
    down.node_b = net.link_owner(li);
    plan.events_.push_back(down);
    if (cfg.fault.repair > 0) {
      FaultEvent up = down;
      up.at = at + cfg.fault.repair;
      up.kind = FaultKind::kLinkUp;
      plan.events_.push_back(up);
    }
  }
  std::vector<NodeId> nodes(static_cast<std::size_t>(cfg.num_nodes()));
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    nodes[static_cast<std::size_t>(n)] = n;
  }
  for (int k = 0; k < cfg.fault.routers; ++k) {
    const std::size_t j =
        static_cast<std::size_t>(k) +
        static_cast<std::size_t>(rng.next_below(nodes.size() -
                                                static_cast<std::size_t>(k)));
    std::swap(nodes[static_cast<std::size_t>(k)], nodes[j]);
    FaultEvent ev;
    ev.at = at;
    ev.kind = FaultKind::kRouterDown;
    ev.node_a = nodes[static_cast<std::size_t>(k)];
    plan.events_.push_back(ev);
  }
  std::sort(plan.events_.begin(), plan.events_.end(), event_order);

  // Worst-state connectivity: every scheduled fault applied at once
  // (flaps conservatively counted as down even if their windows never
  // overlap).  The escape-table rebuild *is* the connectivity check.
  std::vector<std::uint8_t> link_alive(
      static_cast<std::size_t>(net.num_links()), 1);
  std::vector<std::uint8_t> node_alive(
      static_cast<std::size_t>(cfg.num_nodes()), 1);
  for (const FaultEvent& e : plan.events_) {
    if (e.kind == FaultKind::kLinkDown) {
      link_alive[static_cast<std::size_t>(e.link)] = 0;
      const int r = net.reverse_link(e.link);
      if (r >= 0) link_alive[static_cast<std::size_t>(r)] = 0;
    } else if (e.kind == FaultKind::kRouterDown) {
      node_alive[static_cast<std::size_t>(e.node_a)] = 0;
    }
  }
  FaultRoutingTable worst(cfg);
  worst.rebuild(net, link_alive, node_alive);
  const std::int64_t worst_unreachable_pairs = worst.unreachable_pairs();
  if (worst_unreachable_pairs > 0 && !cfg.fault.allow_partition) {
    std::ostringstream msg;
    msg << "fault plan (fault seed " << resolved_fault_seed(cfg)
        << ") disconnects the fabric: " << worst_unreachable_pairs
        << " of "
        << static_cast<std::int64_t>(cfg.num_nodes()) *
               (cfg.num_nodes() - 1)
        << " ordered node pairs unreachable (events:";
    for (const FaultEvent& e : plan.events_) {
      if (e.kind == FaultKind::kLinkUp) continue;
      if (e.kind == FaultKind::kLinkDown) {
        msg << " link " << e.node_a << "-" << e.node_b;
      } else {
        msg << " router " << e.node_a;
      }
      msg << " @" << e.at << ";";
    }
    msg << ") pass --allow-partition to run degraded";
    throw std::runtime_error(msg.str());
  }
  return plan;
}

// --- FaultRoutingTable -----------------------------------------------

FaultRoutingTable::FaultRoutingTable(const SimConfig& cfg)
    : ctx_(cfg.route_context()),
      n_(cfg.num_nodes()),
      escape_vc_(cfg.vcs - 1) {}

void FaultRoutingTable::rebuild(const Network& net,
                                const std::vector<std::uint8_t>& link_alive,
                                const std::vector<std::uint8_t>& node_alive) {
  const int n = n_;
  const std::size_t nn =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  xy_ok_.assign(nn, 0);
  esc_next_.assign(nn, -1);
  parent_.assign(static_cast<std::size_t>(n), kInvalidNode);
  depth_.assign(static_cast<std::size_t>(n), 0);
  up_dir_.assign(static_cast<std::size_t>(n), -1);
  comp_.assign(static_cast<std::size_t>(n), -1);

  auto alive_node = [&](NodeId v) {
    return node_alive[static_cast<std::size_t>(v)] != 0;
  };
  auto alive_pair = [&](int li) {
    if (li < 0 || link_alive[static_cast<std::size_t>(li)] == 0) return false;
    const int r = net.reverse_link(li);
    return r >= 0 && link_alive[static_cast<std::size_t>(r)] != 0;
  };

  // BFS spanning forest of the alive graph, roots in ascending node
  // order, neighbours explored in ascending Dir order — so the tree
  // (and therefore every escape route) is a pure function of the alive
  // sets, independent of shard layout.
  std::vector<std::int64_t> comp_size;
  for (NodeId root = 0; root < n; ++root) {
    if (!alive_node(root) || comp_[static_cast<std::size_t>(root)] != -1) {
      continue;
    }
    const int c = static_cast<int>(comp_size.size());
    comp_[static_cast<std::size_t>(root)] = c;
    bfs_queue_.clear();
    bfs_queue_.push_back(root);
    std::size_t head = 0;
    std::int64_t sz = 0;
    while (head < bfs_queue_.size()) {
      const NodeId cur = bfs_queue_[head++];
      ++sz;
      for (int d = 0; d < 4; ++d) {
        const int li = net.link_at(cur, static_cast<Dir>(d));
        if (!alive_pair(li)) continue;
        const NodeId nb = net.link_owner(li);
        if (!alive_node(nb) || comp_[static_cast<std::size_t>(nb)] != -1) {
          continue;
        }
        comp_[static_cast<std::size_t>(nb)] = c;
        parent_[static_cast<std::size_t>(nb)] = cur;
        depth_[static_cast<std::size_t>(nb)] =
            depth_[static_cast<std::size_t>(cur)] + 1;
        up_dir_[static_cast<std::size_t>(nb)] =
            static_cast<std::int8_t>(port(opposite(static_cast<Dir>(d))));
        bfs_queue_.push_back(nb);
      }
    }
    comp_size.push_back(sz);
  }
  std::int64_t reachable = 0;
  for (const std::int64_t sz : comp_size) reachable += sz * (sz - 1);
  unreachable_pairs_ =
      static_cast<std::int64_t>(n) * (n - 1) - reachable;

  for (NodeId s = 0; s < n; ++s) {
    if (!alive_node(s)) continue;
    for (NodeId d = 0; d < n; ++d) {
      if (!alive_node(d) ||
          comp_[static_cast<std::size_t>(s)] !=
              comp_[static_cast<std::size_t>(d)]) {
        continue;
      }
      if (s == d) {
        xy_ok_[idx(s, d)] = 1;
        esc_next_[idx(s, d)] = static_cast<std::int8_t>(port(Dir::kLocal));
        continue;
      }
      // Whole remaining dimension-order path alive?
      NodeId cur = s;
      bool ok = true;
      while (cur != d) {
        const Dir dir = route_xy(cur, d, ctx_);
        const int li = net.link_at(cur, dir);
        if (!alive_pair(li)) {
          ok = false;
          break;
        }
        cur = net.link_owner(li);
        if (!alive_node(cur)) {
          ok = false;
          break;
        }
      }
      xy_ok_[idx(s, d)] = ok ? 1 : 0;
      // Escape next hop: up toward the lowest common ancestor, then
      // down the tree (classic up*/down* — acyclic on a tree).
      NodeId b = d;
      NodeId prev = kInvalidNode;
      while (depth_[static_cast<std::size_t>(b)] >
             depth_[static_cast<std::size_t>(s)]) {
        prev = b;
        b = parent_[static_cast<std::size_t>(b)];
      }
      if (b == s) {
        // s is an ancestor of d: descend toward the child on d's path.
        assert(prev != kInvalidNode);
        esc_next_[idx(s, d)] = static_cast<std::int8_t>(port(opposite(
            static_cast<Dir>(up_dir_[static_cast<std::size_t>(prev)]))));
      } else {
        esc_next_[idx(s, d)] = up_dir_[static_cast<std::size_t>(s)];
      }
    }
  }
}

// --- FaultController --------------------------------------------------

FaultController::FaultController(const SimConfig& cfg, Network& net,
                                 FaultPlan plan)
    : cfg_(cfg),
      net_(net),
      plan_(std::move(plan)),
      table_(cfg),
      link_alive_(static_cast<std::size_t>(net.num_links()), 1),
      node_alive_(static_cast<std::size_t>(cfg.num_nodes()), 1),
      inj_link_(static_cast<std::size_t>(cfg.num_nodes()), -1),
      ej_link_(static_cast<std::size_t>(cfg.num_nodes()), -1),
      retx_rng_(mix_seed(resolved_fault_seed(cfg), kRetxStream)) {
  for (int li = 0; li < net_.num_links(); ++li) {
    if (net_.link_kind(li) == Network::LinkKind::kInjection) {
      inj_link_[static_cast<std::size_t>(net_.link_source(li))] = li;
    } else if (net_.link_kind(li) == Network::LinkKind::kEjection) {
      ej_link_[static_cast<std::size_t>(net_.link_owner(li))] = li;
    }
  }
  table_.rebuild(net_, link_alive_, node_alive_);
}

Cycle FaultController::next_due() const {
  Cycle d = kNoDue;
  if (cursor_ < plan_.events().size()) d = plan_.events()[cursor_].at;
  if (!retx_.empty() && retx_.front().due < d) d = retx_.front().due;
  return d;
}

FaultController::CycleOutcome FaultController::process(Cycle now) {
  CycleOutcome out;
  const std::vector<FaultEvent>& evs = plan_.events();
  while (cursor_ < evs.size() && evs[cursor_].at <= now) {
    apply_event(evs[cursor_++], now, out);
    out.reconfigured = true;
  }
  // Retransmissions due this cycle (after same-cycle events, so the
  // fire-time reachability check sees the post-event fabric).
  std::size_t npop = 0;
  while (npop < retx_.size() && retx_[npop].due <= now) ++npop;
  for (std::size_t i = 0; i < npop; ++i) {
    const Retx& r = retx_[i];
    const RetxDue due{r.src, r.dst, r.packet, r.created, r.attempt};
    if (node_alive(r.src) && table_.reachable(r.src, r.dst)) {
      out.retransmit_now.push_back(due);
    } else {
      out.abandoned_now.push_back(due);
    }
  }
  retx_.erase(retx_.begin(),
              retx_.begin() + static_cast<std::ptrdiff_t>(npop));
  return out;
}

void FaultController::kill_link_pair(int canonical) {
  link_alive_[static_cast<std::size_t>(canonical)] = 0;
  const int r = net_.reverse_link(canonical);
  if (r >= 0) link_alive_[static_cast<std::size_t>(r)] = 0;
}

void FaultController::apply_event(const FaultEvent& e, Cycle now,
                                  CycleOutcome& out) {
  FaultReport rep;
  rep.at = now;
  rep.kind = e.kind;
  rep.node_a = e.node_a;
  rep.node_b = e.node_b;

  if (e.kind == FaultKind::kLinkUp) {
    link_alive_[static_cast<std::size_t>(e.link)] = 1;
    const int r = net_.reverse_link(e.link);
    if (r >= 0) link_alive_[static_cast<std::size_t>(r)] = 1;
    table_.rebuild(net_, link_alive_, node_alive_);
    // Heads still waiting on a VC re-route onto the repaired fabric
    // immediately; everything already granted keeps its path.
    for (NodeId n = 0; n < cfg_.num_nodes(); ++n) {
      if (node_alive(n)) net_.router(n).fault_reroute_pending();
    }
    recompute_credits();
    rep.unreachable_pairs = table_.unreachable_pairs();
    out.reports.push_back(rep);
    return;
  }

  lost_ids_.clear();
  lost_order_.clear();
  lost_meta_.clear();

  // Structural loss seeds: worms holding an output VC toward a port
  // whose link just died.  Their flits may sit anywhere (including
  // fully downstream of this router), so only the id is known here —
  // the sweep fills in the metadata from whichever flit it finds.
  auto seed_dead_port_owners = [&](int li) {
    if (li < 0 || net_.link_kind(li) != Network::LinkKind::kRouter) return;
    Router& r = net_.router(net_.link_source(li));
    const int p = port(net_.link_dir(li));
    for (int v = 0; v < cfg_.vcs; ++v) {
      const PacketId id = r.fault_out_vc_owner_packet(p, v);
      if (id >= 0 && lost_ids_.insert(id).second) lost_order_.push_back(id);
    }
  };

  if (e.kind == FaultKind::kLinkDown) {
    kill_link_pair(e.link);
    seed_dead_port_owners(e.link);
    seed_dead_port_owners(net_.reverse_link(e.link));
  } else {  // kRouterDown
    node_alive_[static_cast<std::size_t>(e.node_a)] = 0;
    for (int d = 0; d < 4; ++d) {
      const int li = net_.link_at(e.node_a, static_cast<Dir>(d));
      if (li < 0 || !link_alive(li)) continue;
      kill_link_pair(li);
      seed_dead_port_owners(li);
      seed_dead_port_owners(net_.reverse_link(li));
    }
    const int inj = inj_link_[static_cast<std::size_t>(e.node_a)];
    const int ej = ej_link_[static_cast<std::size_t>(e.node_a)];
    if (inj >= 0) link_alive_[static_cast<std::size_t>(inj)] = 0;
    if (ej >= 0) link_alive_[static_cast<std::size_t>(ej)] = 0;
    net_.nic(e.node_a).fault_kill();
  }

  table_.rebuild(net_, link_alive_, node_alive_);
  sweep_lost();
  purge_lost(rep);
  // Every head still waiting for an output VC re-routes around the
  // fault; a stale route toward a dead port would stall forever (its
  // credits are pinned at zero).
  for (NodeId n = 0; n < cfg_.num_nodes(); ++n) {
    if (node_alive(n)) net_.router(n).fault_reroute_pending();
  }
  recompute_credits();

  // Loss consequences, in canonical packet order (PacketId encodes
  // (src node, sequence), so this order — and therefore the jitter
  // RNG's draw order — never depends on traversal details).
  std::sort(lost_order_.begin(), lost_order_.end());
  rep.packets_lost = static_cast<int>(lost_order_.size());
  for (const PacketId id : lost_order_) {
    const LostMeta& m = lost_meta_.at(id);
    LostPacket lp;
    lp.packet = id;
    lp.src = m.src;
    lp.dst = m.dst;
    lp.created = m.created;
    if (node_alive(m.src) && table_.reachable(m.src, m.dst)) {
      lp.retransmit = true;
      schedule_retx(now, id, m.src, m.dst, m.created, rep, out);
    } else {
      ++rep.packets_abandoned;
    }
    out.lost.push_back(lp);
  }
  rep.unreachable_pairs = table_.unreachable_pairs();
  out.reports.push_back(rep);
}

void FaultController::sweep_lost() {
  auto visit = [&](NodeId loc, bool loc_dead, const Flit& f) {
    if (lost_ids_.count(f.packet) != 0) {
      // Already lost (structurally or via an earlier flit): make sure
      // the metadata is filled.
      lost_meta_.emplace(f.packet, LostMeta{f.src, f.dst, f.created});
      return;
    }
    if (!loc_dead && node_alive(loc) && table_.reachable(loc, f.dst)) return;
    lost_ids_.insert(f.packet);
    lost_order_.push_back(f.packet);
    lost_meta_.emplace(f.packet, LostMeta{f.src, f.dst, f.created});
  };
  for (NodeId n = 0; n < cfg_.num_nodes(); ++n) {
    const bool dead = !node_alive(n);
    net_.router(n).fault_for_each_flit(
        [&](const Flit& f) { visit(n, dead, f); });
    net_.nic(n).fault_for_each_queued(
        [&](const Flit& f) { visit(n, dead, f); });
  }
  for (int li = 0; li < net_.num_links(); ++li) {
    const NodeId loc = net_.link_owner(li);
    const bool dead = !link_alive(li);
    net_.link_flits(li).fault_for_each(
        [&](const Flit& f) { visit(loc, dead, f); });
  }
}

void FaultController::purge_lost(FaultReport& rep) {
  const auto pred = [&](PacketId id) { return lost_ids_.count(id) != 0; };
  int purged = 0;
  for (NodeId n = 0; n < cfg_.num_nodes(); ++n) {
    purged += net_.router(n).fault_purge(pred);
    purged += net_.nic(n).fault_purge(pred);
  }
  for (int li = 0; li < net_.num_links(); ++li) {
    if (link_alive(li)) {
      purged += net_.link_flits(li).fault_purge(
          [&](const Flit& f) { return pred(f.packet); });
    } else {
      // A dead channel is emptied outright (its flits are all in the
      // lost set by the sweep rule).  No credit is in flight between
      // steps, so there is none to drop.
      purged += net_.link_flits(li).fault_purge(
          [](const Flit&) { return true; });
    }
  }
  rep.flits_purged = purged;
}

void FaultController::recompute_credits() {
  // Wholesale reconstruction from the flow-control invariant
  // (Network::free_slots).  For an untouched link this reproduces the
  // current value exactly; for a link whose pipe or downstream buffers
  // were purged it restores the slots the purge freed.  Dead links pin
  // the producer at zero so nothing is ever staged toward them.
  for (int li = 0; li < net_.num_links(); ++li) {
    const bool alive = link_alive(li);
    for (int v = 0; v < cfg_.vcs; ++v) {
      const int c = alive ? net_.free_slots(li, v) : 0;
      assert(c >= 0 && c <= cfg_.vc_depth_flits &&
             "credit reconstruction out of range");
      net_.fault_set_credits(li, v, c);
    }
  }
}

void FaultController::schedule_retx(Cycle now, PacketId id, NodeId src,
                                    NodeId dst, Cycle created,
                                    FaultReport& rep, CycleOutcome&) {
  const int attempt = ++retx_attempts_[id];
  const int shift = std::min(attempt - 1, kRetxShiftCap);
  const Cycle backoff = kRetxBase << shift;
  const Cycle jitter = static_cast<Cycle>(
      retx_rng_.next_below(static_cast<std::uint64_t>(kRetxBase)));
  Retx r;
  r.due = now + backoff + jitter;
  r.src = src;
  r.dst = dst;
  r.packet = id;
  r.created = created;
  r.attempt = attempt;
  const auto pos = std::upper_bound(
      retx_.begin(), retx_.end(), r, [](const Retx& a, const Retx& b) {
        return std::tie(a.due, a.src, a.packet) <
               std::tie(b.due, b.src, b.packet);
      });
  retx_.insert(pos, r);
  ++rep.retransmits_scheduled;
}

}  // namespace lain::noc
