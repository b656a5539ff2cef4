#include "noc/routing.hpp"

#include <stdexcept>

namespace lain::noc {

MeshCoord coord_of(NodeId id, const RouteContext& ctx) {
  if (id < 0 || id >= ctx.radix_x * ctx.radix_y) {
    throw std::out_of_range("node id outside topology");
  }
  return MeshCoord{id % ctx.radix_x, id / ctx.radix_x};
}

NodeId node_of(MeshCoord c, const RouteContext& ctx) {
  if (c.x < 0 || c.x >= ctx.radix_x || c.y < 0 || c.y >= ctx.radix_y) {
    throw std::out_of_range("coordinate outside topology");
  }
  return c.y * ctx.radix_x + c.x;
}

Dir route_xy(NodeId here, NodeId dst, const RouteContext& ctx) {
  const MeshCoord a = coord_of(here, ctx);
  const MeshCoord b = coord_of(dst, ctx);
  if (a.x == b.x && a.y == b.y) return Dir::kLocal;
  if (a.x != b.x) {
    if (ctx.topology == TopologyKind::kMesh) {
      return b.x > a.x ? Dir::kEast : Dir::kWest;
    }
    const int fwd = (b.x - a.x + ctx.radix_x) % ctx.radix_x;  // eastward
    return (fwd <= ctx.radix_x - fwd) ? Dir::kEast : Dir::kWest;
  }
  if (ctx.topology == TopologyKind::kMesh) {
    return b.y > a.y ? Dir::kSouth : Dir::kNorth;
  }
  const int fwd = (b.y - a.y + ctx.radix_y) % ctx.radix_y;  // southward
  return (fwd <= ctx.radix_y - fwd) ? Dir::kSouth : Dir::kNorth;
}

bool crosses_dateline(NodeId here, Dir next, const RouteContext& ctx) {
  if (ctx.topology != TopologyKind::kTorus) return false;
  const MeshCoord a = coord_of(here, ctx);
  switch (next) {
    case Dir::kEast: return a.x == ctx.radix_x - 1;
    case Dir::kWest: return a.x == 0;
    case Dir::kSouth: return a.y == ctx.radix_y - 1;
    case Dir::kNorth: return a.y == 0;
    case Dir::kLocal: return false;
  }
  return false;
}

}  // namespace lain::noc
