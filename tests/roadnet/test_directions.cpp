#include "sunchase/roadnet/directions.h"

#include <gtest/gtest.h>

#include "sunchase/common/error.h"
#include "sunchase/roadnet/citygen.h"
#include "test_helpers.h"

namespace sunchase::roadnet {
namespace {

Path walk(const RoadGraph& g, std::initializer_list<NodeId> nodes) {
  Path p;
  auto it = nodes.begin();
  for (NodeId prev = *it++; it != nodes.end(); prev = *it++)
    p.edges.push_back(g.find_edge(prev, *it));
  return p;
}

TEST(Directions, EdgeBearings) {
  const test::SquareGraph sq;  // jitter-free lattice
  EXPECT_NEAR(edge_bearing_deg(sq.graph, sq.graph.find_edge(0, 1)), 90.0,
              1.0);  // east
  EXPECT_NEAR(edge_bearing_deg(sq.graph, sq.graph.find_edge(0, 2)), 0.0,
              1.0);  // north
  EXPECT_NEAR(edge_bearing_deg(sq.graph, sq.graph.find_edge(1, 0)), 270.0,
              1.0);  // west
  EXPECT_NEAR(edge_bearing_deg(sq.graph, sq.graph.find_edge(2, 0)), 180.0,
              1.0);  // south
}

TEST(Directions, ClassifyTurnBuckets) {
  EXPECT_EQ(classify_turn(0.0), Turn::Straight);
  EXPECT_EQ(classify_turn(20.0), Turn::Straight);
  EXPECT_EQ(classify_turn(45.0), Turn::SlightRight);
  EXPECT_EQ(classify_turn(-45.0), Turn::SlightLeft);
  EXPECT_EQ(classify_turn(90.0), Turn::Right);
  EXPECT_EQ(classify_turn(-90.0), Turn::Left);
  EXPECT_EQ(classify_turn(150.0), Turn::SharpRight);
  EXPECT_EQ(classify_turn(-150.0), Turn::SharpLeft);
  EXPECT_EQ(classify_turn(180.0), Turn::UTurn);
  EXPECT_EQ(classify_turn(-175.0), Turn::UTurn);
  // Wrap-around: 350 degrees clockwise = 10 left.
  EXPECT_EQ(classify_turn(350.0), Turn::Straight);
  EXPECT_EQ(classify_turn(270.0), Turn::Left);
}

TEST(Directions, SimpleLShapedRoute) {
  const test::SquareGraph sq;
  // East along 0->1, then north 1->3: depart, right-angle left turn.
  const auto steps = directions_for(sq.graph, walk(sq.graph, {0, 1, 3}));
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].turn, Turn::Depart);
  EXPECT_NEAR(steps[0].bearing_deg, 90.0, 1.0);
  EXPECT_NEAR(steps[0].distance.value(), 100.0, 1.0);
  EXPECT_EQ(steps[1].turn, Turn::Left);
  EXPECT_NEAR(steps[1].bearing_deg, 0.0, 1.0);
  EXPECT_EQ(steps[1].at_node, 1u);
  EXPECT_EQ(steps[2].turn, Turn::Arrive);
  EXPECT_EQ(steps[2].at_node, 3u);
}

TEST(Directions, StraightSegmentsMerge) {
  // Three collinear edges produce a single depart instruction.
  GraphBuilder b;
  const auto proj = test::montreal_projection();
  for (int i = 0; i < 4; ++i) b.add_node(proj.to_geo({i * 100.0, 0.0}));
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  const RoadGraph g = std::move(b).build();
  Path p;
  p.edges = {0, 1, 2};
  const auto steps = directions_for(g, p);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].turn, Turn::Depart);
  EXPECT_NEAR(steps[0].distance.value(), 300.0, 1.0);
  EXPECT_EQ(steps[1].turn, Turn::Arrive);
}

TEST(Directions, EmptyPathArrivesImmediately) {
  const test::SquareGraph sq;
  const auto steps = directions_for(sq.graph, Path{});
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].turn, Turn::Arrive);
}

TEST(Directions, DisconnectedPathRejected) {
  const test::SquareGraph sq;
  Path broken;
  broken.edges = {sq.graph.find_edge(0, 1), sq.graph.find_edge(2, 3)};
  EXPECT_THROW((void)directions_for(sq.graph, broken), GraphError);
}

TEST(Directions, RenderedTextReadsNaturally) {
  const test::SquareGraph sq;
  const auto steps = directions_for(sq.graph, walk(sq.graph, {0, 1, 3}));
  const std::string first = to_string(steps[0]);
  EXPECT_NE(first.find("depart"), std::string::npos);
  EXPECT_NE(first.find("east"), std::string::npos);
  EXPECT_NE(first.find("100 m"), std::string::npos);
  EXPECT_EQ(to_string(steps.back()), "arrive at your destination");
}

TEST(Directions, CityRouteDistancesSumToPathLength) {
  const GridCity city{GridCityOptions{}};
  // Staircase route across the grid.
  Path p;
  NodeId at = city.node_at(0, 0);
  for (int i = 1; i <= 5; ++i) {
    const NodeId right = city.node_at(i - 1, i);
    const NodeId up = city.node_at(i, i);
    EdgeId e = city.graph().find_edge(at, right);
    if (e != kInvalidEdge) {
      p.edges.push_back(e);
      at = right;
    }
    e = city.graph().find_edge(at, up);
    if (e != kInvalidEdge) {
      p.edges.push_back(e);
      at = up;
    }
  }
  ASSERT_FALSE(p.empty()) << "one-way layout blocked the staircase";
  const auto steps = directions_for(city.graph(), p);
  double sum = 0.0;
  for (const Direction& d : steps) sum += d.distance.value();
  EXPECT_NEAR(sum, path_length(p, city.graph()).value(), 1e-6);
}

}  // namespace
}  // namespace sunchase::roadnet
