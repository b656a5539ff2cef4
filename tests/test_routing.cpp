#include "noc/routing.hpp"

#include <gtest/gtest.h>

#include "noc/rng.hpp"

namespace lain::noc {
namespace {

RouteContext mesh5() { return RouteContext{TopologyKind::kMesh, 5, 5}; }
RouteContext torus4() { return RouteContext{TopologyKind::kTorus, 4, 4}; }

TEST(Routing, CoordinateRoundTrip) {
  const RouteContext ctx = mesh5();
  for (NodeId id = 0; id < 25; ++id) {
    EXPECT_EQ(node_of(coord_of(id, ctx), ctx), id);
  }
  EXPECT_THROW(coord_of(25, ctx), std::out_of_range);
  EXPECT_THROW(node_of(MeshCoord{5, 0}, ctx), std::out_of_range);
}

TEST(Routing, XyGoesXFirst) {
  const RouteContext ctx = mesh5();
  const NodeId src = node_of(MeshCoord{0, 0}, ctx);
  const NodeId dst = node_of(MeshCoord{3, 4}, ctx);
  EXPECT_EQ(route_xy(src, dst, ctx), Dir::kEast);
  // Once X matches, go in Y.
  const NodeId mid = node_of(MeshCoord{3, 0}, ctx);
  EXPECT_EQ(route_xy(mid, dst, ctx), Dir::kSouth);
  EXPECT_EQ(route_xy(dst, dst, ctx), Dir::kLocal);
}

TEST(Routing, MeshDirections) {
  const RouteContext ctx = mesh5();
  const NodeId c = node_of(MeshCoord{2, 2}, ctx);
  EXPECT_EQ(route_xy(c, node_of(MeshCoord{0, 2}, ctx), ctx), Dir::kWest);
  EXPECT_EQ(route_xy(c, node_of(MeshCoord{2, 0}, ctx), ctx), Dir::kNorth);
  EXPECT_EQ(route_xy(c, node_of(MeshCoord{2, 4}, ctx), ctx), Dir::kSouth);
}

TEST(Routing, TorusTakesShortWrap) {
  const RouteContext ctx = torus4();
  // 0 -> 3 in X: wrapping west is 1 hop vs 3 east.
  EXPECT_EQ(route_xy(node_of(MeshCoord{0, 0}, ctx),
                     node_of(MeshCoord{3, 0}, ctx), ctx),
            Dir::kWest);
  // Distance 2: tie goes to the positive (east/south) direction.
  EXPECT_EQ(route_xy(node_of(MeshCoord{0, 0}, ctx),
                     node_of(MeshCoord{2, 0}, ctx), ctx),
            Dir::kEast);
}

TEST(Routing, DatelineDetection) {
  const RouteContext ctx = torus4();
  EXPECT_TRUE(crosses_dateline(node_of(MeshCoord{3, 1}, ctx), Dir::kEast, ctx));
  EXPECT_FALSE(
      crosses_dateline(node_of(MeshCoord{2, 1}, ctx), Dir::kEast, ctx));
  EXPECT_TRUE(crosses_dateline(node_of(MeshCoord{0, 1}, ctx), Dir::kWest, ctx));
  EXPECT_TRUE(
      crosses_dateline(node_of(MeshCoord{1, 3}, ctx), Dir::kSouth, ctx));
  // Mesh never has a dateline.
  EXPECT_FALSE(crosses_dateline(4, Dir::kEast, mesh5()));
}

// Property: following route_xy step by step reaches the destination in
// exactly the Manhattan distance (mesh) / shortest wrap distance
// (torus), for random pairs.
struct RouteCase {
  TopologyKind topo;
  int rx, ry;
};

class RouteConvergence : public ::testing::TestWithParam<RouteCase> {};

TEST_P(RouteConvergence, ReachesDestinationShortest) {
  const RouteCase c = GetParam();
  const RouteContext ctx{c.topo, c.rx, c.ry};
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId src = static_cast<NodeId>(rng.next_below(
        static_cast<uint64_t>(c.rx * c.ry)));
    const NodeId dst = static_cast<NodeId>(rng.next_below(
        static_cast<uint64_t>(c.rx * c.ry)));
    int hops = 0;
    while (src != dst) {
      const Dir d = route_xy(src, dst, ctx);
      ASSERT_NE(d, Dir::kLocal);
      MeshCoord p = coord_of(src, ctx);
      switch (d) {
        case Dir::kEast: p.x = (p.x + 1) % c.rx; break;
        case Dir::kWest: p.x = (p.x - 1 + c.rx) % c.rx; break;
        case Dir::kSouth: p.y = (p.y + 1) % c.ry; break;
        case Dir::kNorth: p.y = (p.y - 1 + c.ry) % c.ry; break;
        case Dir::kLocal: break;
      }
      src = node_of(p, ctx);
      ASSERT_LE(++hops, c.rx + c.ry) << "routing diverged";
    }
    EXPECT_EQ(route_xy(src, dst, ctx), Dir::kLocal);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, RouteConvergence,
    ::testing::Values(RouteCase{TopologyKind::kMesh, 5, 5},
                      RouteCase{TopologyKind::kMesh, 3, 7},
                      RouteCase{TopologyKind::kTorus, 4, 4},
                      RouteCase{TopologyKind::kTorus, 6, 3}));

TEST(Dir, OppositeAndNames) {
  EXPECT_EQ(opposite(Dir::kNorth), Dir::kSouth);
  EXPECT_EQ(opposite(Dir::kWest), Dir::kEast);
  EXPECT_EQ(opposite(Dir::kLocal), Dir::kLocal);
  EXPECT_STREQ(dir_name(Dir::kLocal), "PE");
}

}  // namespace
}  // namespace lain::noc
