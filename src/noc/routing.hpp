// routing.hpp — the one routing function of k-ary 2D meshes and tori,
// plus node <-> coordinate mapping.
//
// Dimension-order (XY) routing: deadlock-free on the mesh with a
// single VC; on the torus it is combined with the dateline rule (VC 0
// before the wrap-around crossing, VC 1 after), which is handled by
// the router's VC admission mask.

#pragma once

#include "noc/types.hpp"

namespace lain::noc {

struct MeshCoord {
  int x = 0;
  int y = 0;
};

enum class TopologyKind { kMesh, kTorus };

struct RouteContext {
  TopologyKind topology = TopologyKind::kMesh;
  int radix_x = 4;   // routers per row
  int radix_y = 4;   // routers per column
};

MeshCoord coord_of(NodeId id, const RouteContext& ctx);
NodeId node_of(MeshCoord c, const RouteContext& ctx);

// Dimension-order next hop from `here` toward `dst` (X first, then Y).
// Returns kLocal when here == dst.  For the torus, picks the shorter
// wrap direction (ties go to the positive direction).
Dir route_xy(NodeId here, NodeId dst, const RouteContext& ctx);

// For torus dateline deadlock avoidance: does the XY next hop from
// `here` to `dst` cross the wrap-around edge?
bool crosses_dateline(NodeId here, Dir next, const RouteContext& ctx);

}  // namespace lain::noc
