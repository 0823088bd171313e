#include "sunchase/roadnet/traffic.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "sunchase/common/error.h"
#include "sunchase/roadnet/citygen.h"
#include "test_helpers.h"

namespace sunchase::roadnet {
namespace {

TEST(UniformTraffic, ConstantEverywhere) {
  const test::SquareGraph sq;
  const UniformTraffic traffic(kmh(15.0));
  for (EdgeId e = 0; e < sq.graph.edge_count(); ++e) {
    EXPECT_DOUBLE_EQ(
        traffic.speed(sq.graph, e, TimeOfDay::hms(8, 0)).value(),
        kmh(15.0).value());
    EXPECT_DOUBLE_EQ(
        traffic.speed(sq.graph, e, TimeOfDay::hms(17, 0)).value(),
        kmh(15.0).value());
  }
}

TEST(UniformTraffic, RejectsNonPositiveSpeed) {
  EXPECT_THROW(UniformTraffic(MetersPerSecond{0.0}), InvalidArgument);
  EXPECT_THROW(UniformTraffic(MetersPerSecond{-1.0}), InvalidArgument);
}

TEST(TravelTime, LengthOverSpeed) {
  const test::SquareGraph sq;
  const UniformTraffic traffic(MetersPerSecond{10.0});
  const EdgeId e = sq.graph.find_edge(0, 1);  // ~100 m
  EXPECT_NEAR(traffic.travel_time(sq.graph, e, TimeOfDay::hms(10, 0)).value(),
              10.0, 0.1);
}

TEST(UrbanTraffic, SpeedsStayInConfiguredBand) {
  const test::SquareGraph sq;
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  for (EdgeId e = 0; e < sq.graph.edge_count(); ++e) {
    // Across the day the defaults span the paper's ~14-17 km/h band.
    for (const int hour : {8, 12, 17}) {
      const double v =
          to_kmh(traffic.speed(sq.graph, e, TimeOfDay::hms(hour, 0)));
      EXPECT_GE(v, 16.2 * 0.85 - 1e-9);  // congestion floor ~13.8
      EXPECT_LE(v, 17.0 + 1e-9);
    }
  }
}

TEST(UrbanTraffic, DeterministicPerEdge) {
  const test::SquareGraph sq;
  const UrbanTraffic a(UrbanTraffic::Options{});
  const UrbanTraffic b(UrbanTraffic::Options{});
  for (EdgeId e = 0; e < sq.graph.edge_count(); ++e)
    EXPECT_DOUBLE_EQ(a.speed(sq.graph, e, TimeOfDay::hms(10, 0)).value(),
                     b.speed(sq.graph, e, TimeOfDay::hms(10, 0)).value());
}

TEST(UrbanTraffic, DifferentSeedsGiveDifferentSpeeds) {
  const test::SquareGraph sq;
  UrbanTraffic::Options opt_a;
  UrbanTraffic::Options opt_b;
  opt_b.seed = opt_a.seed + 1;
  const UrbanTraffic a(opt_a);
  const UrbanTraffic b(opt_b);
  int different = 0;
  for (EdgeId e = 0; e < sq.graph.edge_count(); ++e)
    if (a.speed(sq.graph, e, TimeOfDay::hms(10, 0)).value() !=
        b.speed(sq.graph, e, TimeOfDay::hms(10, 0)).value())
      ++different;
  EXPECT_GT(different, 0);
}

TEST(UrbanTraffic, RushHourSlowerThanMidday) {
  const test::SquareGraph sq;
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  const EdgeId e = sq.graph.find_edge(0, 1);
  const double rush =
      traffic.speed(sq.graph, e, TimeOfDay::hms(8, 30)).value();
  const double midday =
      traffic.speed(sq.graph, e, TimeOfDay::hms(12, 30)).value();
  EXPECT_LT(rush, midday);
}

TEST(UrbanTraffic, CongestionFactorBounds) {
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  for (int h = 0; h < 24; ++h) {
    const double f = traffic.congestion_factor(TimeOfDay::hms(h, 0));
    EXPECT_GE(f, 0.85 - 1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
  // Peak dips hit near the configured floor.
  EXPECT_LT(traffic.congestion_factor(TimeOfDay::hms(8, 30)), 0.87);
}

TEST(UrbanTraffic, RejectsBadOptions) {
  UrbanTraffic::Options bad;
  bad.min_speed = MetersPerSecond{0.0};
  EXPECT_THROW(UrbanTraffic{bad}, InvalidArgument);
  bad = UrbanTraffic::Options{};
  bad.max_speed = kmh(10.0);  // below min
  EXPECT_THROW(UrbanTraffic{bad}, InvalidArgument);
  bad = UrbanTraffic::Options{};
  bad.rush_hour_slowdown = 0.0;
  EXPECT_THROW(UrbanTraffic{bad}, InvalidArgument);
}

TEST(MaxSpeed, UpperBoundsSpeedAtEverySampledTime) {
  // max_speed() feeds the reverse-Dijkstra lower bounds used to prune
  // the Pareto search: it must dominate speed() at every clock time or
  // the bounds stop being admissible.
  const test::SquareGraph sq;
  const UrbanTraffic urban(UrbanTraffic::Options{});
  const UniformTraffic uniform(kmh(15.0));
  for (EdgeId e = 0; e < sq.graph.edge_count(); ++e) {
    const double urban_cap = urban.max_speed(sq.graph, e).value();
    const double uniform_cap = uniform.max_speed(sq.graph, e).value();
    for (int minute = 0; minute < 24 * 60; minute += 7) {
      const TimeOfDay when = TimeOfDay::hms(minute / 60, minute % 60);
      EXPECT_GE(urban_cap, urban.speed(sq.graph, e, when).value() - 1e-12);
      EXPECT_DOUBLE_EQ(uniform_cap,
                       uniform.speed(sq.graph, e, when).value());
    }
  }
}

TEST(MaxSpeed, UrbanCapIsAttainedAtFreeFlow) {
  // Around midnight the congestion factor is ~1, so the cap should be
  // tight (not a loose over-estimate that would weaken pruning).
  const test::SquareGraph sq;
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  const EdgeId e = sq.graph.find_edge(0, 1);
  EXPECT_NEAR(traffic.max_speed(sq.graph, e).value(),
              traffic.speed(sq.graph, e, TimeOfDay::hms(0, 0)).value(),
              traffic.max_speed(sq.graph, e).value() * 1e-6);
}

TEST(MaxSpeed, MinTravelTimeIsLengthOverCap) {
  const test::SquareGraph sq;
  const UniformTraffic traffic(MetersPerSecond{10.0});
  const EdgeId e = sq.graph.find_edge(0, 1);  // ~100 m
  EXPECT_NEAR(traffic.min_travel_time(sq.graph, e).value(), 10.0, 0.1);
  EXPECT_DOUBLE_EQ(
      traffic.min_travel_time(sq.graph, e).value(),
      sq.graph.edge(e).length.value() /
          traffic.max_speed(sq.graph, e).value());
}

TEST(UrbanTraffic, UnknownEdgeThrows) {
  const test::SquareGraph sq;
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  EXPECT_THROW((void)traffic.speed(sq.graph, 999, TimeOfDay::hms(10, 0)),
               GraphError);
}

/// Every edge of a 10x10 grid city, for the batched-speed tests.
std::vector<EdgeId> all_edges(const RoadGraph& graph) {
  std::vector<EdgeId> edges(graph.edge_count());
  std::iota(edges.begin(), edges.end(), EdgeId{0});
  return edges;
}

GridCityOptions ten_by_ten() {
  GridCityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  return opt;
}

TEST(TrafficSpeeds, UrbanBatchMatchesPerEdgeSpeedBitForBit) {
  const GridCity city(ten_by_ten());
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  const std::vector<EdgeId> edges = all_edges(city.graph());
  std::vector<MetersPerSecond> out(edges.size());
  // Every 7.5 minutes across the day: slot starts, midpoints, rush hour.
  for (int half_slot = 0; half_slot < 2 * TimeOfDay::kSlotsPerDay;
       ++half_slot) {
    const TimeOfDay when = TimeOfDay::from_seconds(
        half_slot * TimeOfDay::kSlotSeconds / 2.0);
    traffic.speeds(city.graph(), edges, when, out);
    for (const EdgeId e : edges)
      ASSERT_EQ(out[e].value(), traffic.speed(city.graph(), e, when).value())
          << "edge " << e << " at " << when.to_string();
  }
}

TEST(TrafficSpeeds, UniformBatchFillsItsConstant) {
  const GridCity city(ten_by_ten());
  const UniformTraffic traffic(kmh(15.0));
  const std::vector<EdgeId> edges = all_edges(city.graph());
  std::vector<MetersPerSecond> out(edges.size());
  traffic.speeds(city.graph(), edges, TimeOfDay::hms(8, 30), out);
  for (const EdgeId e : edges)
    ASSERT_EQ(out[e].value(),
              traffic.speed(city.graph(), e, TimeOfDay::hms(8, 30)).value());
}

/// A model without a speeds() override: the batch must go through the
/// default loop over speed(), once per edge, in order.
class CountingTraffic final : public TrafficModel {
 public:
  [[nodiscard]] MetersPerSecond speed(const RoadGraph&, EdgeId edge,
                                      TimeOfDay when) const override {
    ++calls;
    return MetersPerSecond{5.0 + 0.25 * edge + 0.01 * when.slot_index()};
  }
  mutable int calls = 0;
};

TEST(TrafficSpeeds, DefaultLoopsOverSpeed) {
  const GridCity city(ten_by_ten());
  const CountingTraffic traffic;
  const std::vector<EdgeId> edges{3, 1, 4, 1, 5};
  std::vector<MetersPerSecond> out(edges.size() + 2, MetersPerSecond{-1.0});
  const TimeOfDay when = TimeOfDay::hms(17, 20);
  traffic.speeds(city.graph(), edges, when, out);
  EXPECT_EQ(traffic.calls, 5);
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_EQ(out[i].value(),
              traffic.speed(city.graph(), edges[i], when).value());
  // Entries past the batch are left alone.
  EXPECT_EQ(out[5].value(), -1.0);
  EXPECT_EQ(out[6].value(), -1.0);
}

TEST(TrafficSpeeds, ShortOutputThrowsAndEmptyBatchIsANoOp) {
  const GridCity city(ten_by_ten());
  const std::vector<EdgeId> edges{0, 1, 2};
  std::vector<MetersPerSecond> out(2);
  const UrbanTraffic urban(UrbanTraffic::Options{});
  const UniformTraffic uniform(kmh(15.0));
  const CountingTraffic counting;
  const TimeOfDay when = TimeOfDay::hms(9, 0);
  EXPECT_THROW(urban.speeds(city.graph(), edges, when, out), InvalidArgument);
  EXPECT_THROW(uniform.speeds(city.graph(), edges, when, out),
               InvalidArgument);
  EXPECT_THROW(counting.speeds(city.graph(), edges, when, out),
               InvalidArgument);
  urban.speeds(city.graph(), {}, when, {});
  EXPECT_EQ(counting.calls, 0);
}

TEST(TrafficSpeeds, UrbanBatchRejectsUnknownEdges) {
  const GridCity city(ten_by_ten());
  const UrbanTraffic traffic(UrbanTraffic::Options{});
  const std::vector<EdgeId> edges{0, 99999};
  std::vector<MetersPerSecond> out(edges.size());
  EXPECT_THROW(traffic.speeds(city.graph(), edges, TimeOfDay::hms(10, 0), out),
               GraphError);
}

}  // namespace
}  // namespace sunchase::roadnet
