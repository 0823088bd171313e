#include "sunchase/core/dijkstra.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/roadnet/citygen.h"
#include "test_helpers.h"

namespace sunchase::core {
namespace {

TEST(Dijkstra, FindsDirectShortestPath) {
  test::SquareGraph sq;
  roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  const auto result = detail::shortest_time_path(sq.graph, traffic, 0, 3,
                                                 TimeOfDay::hms(10, 0));
  ASSERT_TRUE(result.has_value());
  // Either 0->1->3 or 0->2->3: both ~200 m -> ~20 s at 10 m/s.
  EXPECT_EQ(result->path.size(), 2u);
  EXPECT_NEAR(result->travel_time.value(), 20.0, 0.5);
  EXPECT_TRUE(is_connected(result->path, sq.graph));
  EXPECT_EQ(path_origin(result->path, sq.graph), 0u);
  EXPECT_EQ(path_destination(result->path, sq.graph), 3u);
}

TEST(Dijkstra, PrefersFasterDetourOverSlowDirect) {
  // Two-node pair with a slow direct edge and a fast 2-hop detour.
  roadnet::GraphBuilder b;
  const auto proj = test::montreal_projection();
  b.add_node(proj.to_geo({0, 0}));     // 0
  b.add_node(proj.to_geo({1000, 0}));  // 1
  b.add_node(proj.to_geo({500, 10}));  // 2
  b.add_edge(0, 1, kilometers(5.0));   // long way round marked as direct
  b.add_edge(0, 2, Meters{510.0});
  b.add_edge(2, 1, Meters{510.0});
  const roadnet::RoadGraph g = std::move(b).build();
  roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  const auto result =
      detail::shortest_time_path(g, traffic, 0, 1, TimeOfDay::hms(10, 0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->path.size(), 2u);
  EXPECT_NEAR(result->travel_time.value(), 102.0, 0.1);
}

TEST(Dijkstra, UnreachableReturnsNullopt) {
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_node({45.52, -73.57});
  b.add_edge(0, 1);  // node 2 is isolated
  const roadnet::RoadGraph g = std::move(b).build();
  roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  EXPECT_FALSE(
      detail::shortest_time_path(g, traffic, 0, 2, TimeOfDay::hms(10, 0)));
}

TEST(Dijkstra, OneWayDirectionRespected) {
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_edge(0, 1);  // one-way only
  const roadnet::RoadGraph g = std::move(b).build();
  roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  EXPECT_TRUE(
      detail::shortest_time_path(g, traffic, 0, 1, TimeOfDay::hms(9, 0)));
  EXPECT_FALSE(
      detail::shortest_time_path(g, traffic, 1, 0, TimeOfDay::hms(9, 0)));
}

TEST(Dijkstra, OriginEqualsDestination) {
  test::SquareGraph sq;
  roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  const auto result =
      detail::shortest_time_path(sq.graph, traffic, 2, 2, TimeOfDay::hms(9, 0));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->path.empty());
  EXPECT_DOUBLE_EQ(result->travel_time.value(), 0.0);
}

TEST(Dijkstra, UnknownNodesThrow) {
  test::SquareGraph sq;
  roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  EXPECT_THROW((void)detail::shortest_time_path(sq.graph, traffic, 0, 99,
                                                TimeOfDay::hms(9, 0)),
               GraphError);
}

TEST(Dijkstra, TimeDependentSpeedsAffectChoice) {
  // Grid city with rush-hour congestion: the route exists at both
  // times; rush hour must not be faster than midday.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const roadnet::UrbanTraffic traffic{roadnet::UrbanTraffic::Options{}};
  const roadnet::NodeId o = city.node_at(1, 1);
  const roadnet::NodeId d = city.node_at(8, 9);
  const auto rush = detail::shortest_time_path(city.graph(), traffic, o, d,
                                               TimeOfDay::hms(8, 30));
  const auto midday = detail::shortest_time_path(city.graph(), traffic, o, d,
                                                 TimeOfDay::hms(12, 30));
  ASSERT_TRUE(rush.has_value());
  ASSERT_TRUE(midday.has_value());
  EXPECT_GT(rush->travel_time.value(), midday->travel_time.value());
}

// Property: on the grid city, Dijkstra from corner to corner always
// produces a connected path whose recomputed travel time matches.
class DijkstraGridProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraGridProperty, PathTimeConsistent) {
  roadnet::GridCityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = GetParam();
  const roadnet::GridCity city(opt);
  const roadnet::UniformTraffic traffic(kmh(15.0));
  const auto result =
      detail::shortest_time_path(city.graph(), traffic, city.node_at(0, 0),
                                 city.node_at(5, 5), TimeOfDay::hms(10, 0));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(is_connected(result->path, city.graph()));
  double recomputed = 0.0;
  for (const roadnet::EdgeId e : result->path.edges)
    recomputed +=
        traffic.travel_time(city.graph(), e, TimeOfDay::hms(10, 0)).value();
  EXPECT_NEAR(recomputed, result->travel_time.value(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraGridProperty,
                         ::testing::Values(1, 7, 42, 99, 1234));

TEST(TimeLowerBounds, DestinationIsZeroAndNeighborsMatchStaticWeights) {
  test::SquareGraph sq;
  const roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  detail::DijkstraState lb;
  detail::time_lower_bounds(sq.graph, traffic, 3, lb);
  ASSERT_EQ(lb.size(), sq.graph.node_count());
  EXPECT_DOUBLE_EQ(lb[3], 0.0);
  // Under uniform traffic the "lower bound" IS the travel time, so the
  // bound to the destination equals Dijkstra's distance exactly.
  for (roadnet::NodeId n = 0; n < sq.graph.node_count(); ++n) {
    const auto forward = detail::shortest_time_path(sq.graph, traffic, n, 3,
                                                    TimeOfDay::hms(10, 0));
    ASSERT_TRUE(forward.has_value());
    EXPECT_NEAR(lb[n], forward->travel_time.value(), 1e-9);
  }
}

TEST(TimeLowerBounds, AdmissibleUnderUrbanTrafficAtEveryDeparture) {
  // The whole point of the static bound: at NO departure time — free
  // flow, rush hour, or the saturated end of day — may the bound
  // exceed the real time-dependent shortest time from any node.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const roadnet::UrbanTraffic traffic{roadnet::UrbanTraffic::Options{}};
  const roadnet::NodeId dest = city.node_at(9, 9);
  detail::DijkstraState lb;
  detail::time_lower_bounds(city.graph(), traffic, dest, lb);
  for (const TimeOfDay dep :
       {TimeOfDay::hms(3, 0), TimeOfDay::hms(8, 30), TimeOfDay::hms(17, 15),
        TimeOfDay::hms(23, 59)}) {
    for (const roadnet::NodeId n :
         {city.node_at(0, 0), city.node_at(5, 5), city.node_at(9, 0),
          city.node_at(2, 7)}) {
      const auto forward =
          detail::shortest_time_path(city.graph(), traffic, n, dest, dep);
      ASSERT_TRUE(forward.has_value());
      EXPECT_LE(lb[n], forward->travel_time.value() + 1e-9)
          << "bound from node " << n << " at " << dep.to_string();
    }
  }
}

TEST(TimeLowerBounds, UnreachableNodesGetInfinity) {
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_node({45.52, -73.57});
  b.add_edge(0, 1);  // node 2 cannot reach anything
  const roadnet::RoadGraph g = std::move(b).build();
  const roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  detail::DijkstraState lb;
  detail::time_lower_bounds(g, traffic, 1, lb);
  EXPECT_TRUE(std::isfinite(lb[0]));
  EXPECT_DOUBLE_EQ(lb[1], 0.0);
  EXPECT_TRUE(std::isinf(lb[2]));
}

TEST(TimeLowerBounds, ReverseSearchRespectsOneWayDirections) {
  // A one-way edge 0->1: node 0 can reach destination 1 (finite
  // bound), but destination 0 is unreachable FROM node 1 — a forward
  // Dijkstra on the reversed adjacency must not confuse the two.
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_edge(0, 1);
  const roadnet::RoadGraph g = std::move(b).build();
  const roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  detail::DijkstraState to_1;
  detail::time_lower_bounds(g, traffic, 1, to_1);
  EXPECT_TRUE(std::isfinite(to_1[0]));
  detail::DijkstraState to_0;
  detail::time_lower_bounds(g, traffic, 0, to_0);
  EXPECT_TRUE(std::isinf(to_0[1]));
}

TEST(TimeLowerBounds, ReusedStateMatchesAFreshOne) {
  // The generation stamp must hide everything an earlier run left
  // behind: a bigger world, another destination, unreachable nodes.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const roadnet::UrbanTraffic traffic{roadnet::UrbanTraffic::Options{}};
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_node({45.52, -73.57});
  b.add_edge(0, 1);
  const roadnet::RoadGraph small = std::move(b).build();

  detail::DijkstraState reused;
  detail::time_lower_bounds(city.graph(), traffic, city.node_at(9, 9),
                            reused);
  detail::time_lower_bounds(small, traffic, 1, reused);
  detail::DijkstraState fresh;
  detail::time_lower_bounds(small, traffic, 1, fresh);
  ASSERT_EQ(reused.size(), small.node_count());
  for (roadnet::NodeId n = 0; n < small.node_count(); ++n)
    EXPECT_EQ(reused[n], fresh[n]) << "node " << n;
  EXPECT_TRUE(std::isinf(reused[2]));

  detail::time_lower_bounds(city.graph(), traffic, city.node_at(0, 3),
                            reused);
  detail::time_lower_bounds(city.graph(), traffic, city.node_at(0, 3),
                            fresh);
  for (roadnet::NodeId n = 0; n < city.graph().node_count(); ++n)
    EXPECT_EQ(reused[n], fresh[n]) << "node " << n;
}

TEST(Dijkstra, RepeatedQueriesOnOneThreadAreIndependent) {
  // shortest_time_path reuses a per-thread state: a query on a small
  // graph after a large one, and the large one again, must answer as
  // if each ran first.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const roadnet::UrbanTraffic traffic{roadnet::UrbanTraffic::Options{}};
  const TimeOfDay dep = TimeOfDay::hms(8, 30);
  const auto first = detail::shortest_time_path(
      city.graph(), traffic, city.node_at(1, 1), city.node_at(8, 9), dep);
  ASSERT_TRUE(first.has_value());

  test::SquareGraph sq;
  const auto small = detail::shortest_time_path(sq.graph, traffic, 0, 3, dep);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->path.size(), 2u);

  const auto again = detail::shortest_time_path(
      city.graph(), traffic, city.node_at(1, 1), city.node_at(8, 9), dep);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->travel_time.value(), first->travel_time.value());
  EXPECT_EQ(again->path.edges, first->path.edges);
}

TEST(TimeLowerBounds, UnknownDestinationThrows) {
  test::SquareGraph sq;
  const roadnet::UniformTraffic traffic(MetersPerSecond{10.0});
  detail::DijkstraState lb;
  EXPECT_THROW(detail::time_lower_bounds(sq.graph, traffic, 99, lb),
               GraphError);
}

}  // namespace
}  // namespace sunchase::core
