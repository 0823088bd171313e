#include "sunchase/core/planner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "core_fixture.h"
#include "obs/json_check.h"
#include "sunchase/common/error.h"
#include "sunchase/obs/query_log.h"

namespace sunchase::core {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : city_(roadnet::GridCityOptions{}), env_(city_.graph()) {}

  roadnet::GridCity city_;
  test::RoutingEnv env_;
};

TEST_F(PlannerTest, PlanProducesConsistentResult) {
  const SunChasePlanner planner(env_.world);
  const PlanResult plan = planner.plan(city_.node_at(1, 1),
                                       city_.node_at(8, 8),
                                       TimeOfDay::hms(10, 0));
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_TRUE(plan.candidates.front().is_shortest_time);
  EXPECT_GE(plan.pareto_route_count, plan.candidates.size());
  EXPECT_GT(plan.cluster_count, 0u);
  EXPECT_GT(plan.search_stats.labels_created, 0u);
  for (const auto& cand : plan.candidates) {
    EXPECT_TRUE(is_connected(cand.route.path, city_.graph()));
    EXPECT_EQ(path_origin(cand.route.path, city_.graph()),
              city_.node_at(1, 1));
    EXPECT_EQ(path_destination(cand.route.path, city_.graph()),
              city_.node_at(8, 8));
  }
}

TEST_F(PlannerTest, EveryPlanAppendsOneQueryLogRecord) {
  std::ostringstream sink;
  obs::QueryLog log(sink);
  PlannerOptions options;
  options.query_log = &log;
  const SunChasePlanner planner(env_.world, options);

  const PlanResult plan = planner.plan(city_.node_at(1, 1),
                                       city_.node_at(8, 8),
                                       TimeOfDay::hms(10, 0));
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_EQ(log.record_count(), 1u);

  const std::string text = sink.str();
  ASSERT_FALSE(text.empty());
  const std::string line = text.substr(0, text.find('\n'));
  EXPECT_TRUE(test::json_parses(line)) << line;
  EXPECT_NE(line.find("\"mode\":\"plan\""), std::string::npos);
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  // Phase durations and the recommended-route summary made it through.
  EXPECT_NE(line.find("\"mlc_seconds\""), std::string::npos);
  EXPECT_NE(line.find("\"travel_time_s\""), std::string::npos);

  // A failed plan still leaves a record, flagged as an error.
  EXPECT_THROW(planner.plan(city_.node_at(1, 1), city_.node_at(1, 1) + 100000,
                            TimeOfDay::hms(10, 0)),
               std::exception);
  EXPECT_EQ(log.record_count(), 2u);
  EXPECT_NE(sink.str().find("\"status\":\"error\""), std::string::npos);
}

TEST_F(PlannerTest, PlanAccountsThreadCpuTime) {
  std::ostringstream sink;
  obs::QueryLog log(sink);
  PlannerOptions options;
  options.query_log = &log;
  const SunChasePlanner planner(env_.world, options);

  const PlanResult plan = planner.plan(city_.node_at(1, 1),
                                       city_.node_at(8, 8),
                                       TimeOfDay::hms(10, 0));
  // The search did real work on this thread, so the
  // CLOCK_THREAD_CPUTIME_ID delta must be strictly positive — and no
  // larger than a generous multiple of a small search's budget.
  EXPECT_GT(plan.cpu_seconds, 0.0);
  EXPECT_LT(plan.cpu_seconds, 60.0);

  const std::string text = sink.str();
  const std::string line = text.substr(0, text.find('\n'));
  const auto at = line.find("\"cpu_ms\":");
  ASSERT_NE(at, std::string::npos) << line;
  EXPECT_GT(std::strtod(line.c_str() + at + 9, nullptr), 0.0);
}

TEST_F(PlannerTest, RecommendedPrefersBetterSolar) {
  const SunChasePlanner planner(env_.world);
  const PlanResult plan = planner.plan(city_.node_at(1, 1),
                                       city_.node_at(8, 8),
                                       TimeOfDay::hms(10, 0));
  if (plan.has_better_solar()) {
    EXPECT_FALSE(plan.recommended().is_shortest_time);
    EXPECT_GT(plan.recommended().extra_energy.value(), 0.0);
  } else {
    EXPECT_TRUE(plan.recommended().is_shortest_time);
  }
}

TEST_F(PlannerTest, RecommendedThrowsOnEmptyPlan) {
  const PlanResult empty;
  EXPECT_THROW((void)empty.recommended(), RoutingError);
}

TEST_F(PlannerTest, UnreachableThrowsRoutingError) {
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_node({45.52, -73.57});
  b.add_edge(0, 1);
  const roadnet::RoadGraph g = std::move(b).build();
  test::RoutingEnv env(g);
  const SunChasePlanner planner(env.world);
  EXPECT_THROW((void)planner.plan(0, 2, TimeOfDay::hms(10, 0)),
               RoutingError);
}

TEST_F(PlannerTest, OptionsArePropagated) {
  PlannerOptions opt;
  opt.mlc.max_time_factor = 1.2;
  opt.selection.require_positive_energy_extra = false;
  const SunChasePlanner planner(env_.world, opt);
  EXPECT_DOUBLE_EQ(planner.options().mlc.max_time_factor, 1.2);
  const PlanResult plan = planner.plan(city_.node_at(0, 0),
                                       city_.node_at(5, 5),
                                       TimeOfDay::hms(11, 0));
  const double bound =
      plan.search_stats.shortest_travel_time.value() * 1.2;
  for (const auto& cand : plan.candidates)
    EXPECT_LE(cand.metrics.travel_time.value(), bound + 1e-6);
}

TEST_F(PlannerTest, DifferentVehiclesCanDisagree) {
  const SunChasePlanner lv_planner(env_.world);
  PlannerOptions tesla_opt;
  tesla_opt.mlc.vehicle = test::RoutingEnv::kTesla;
  const SunChasePlanner tesla_planner(env_.world, tesla_opt);
  int lv_better = 0, tesla_better = 0;
  for (const auto& [r, c] : {std::pair{6, 6}, std::pair{8, 3}, std::pair{4, 9},
                            std::pair{9, 9}}) {
    const TimeOfDay dep = TimeOfDay::hms(10, 0);
    if (lv_planner.plan(city_.node_at(1, 1), city_.node_at(r, c), dep)
            .has_better_solar())
      ++lv_better;
    if (tesla_planner.plan(city_.node_at(1, 1), city_.node_at(r, c), dep)
            .has_better_solar())
      ++tesla_better;
  }
  // The paper's core observation: the heavy Tesla finds better-solar
  // routes no more often than the light prototype.
  EXPECT_LE(tesla_better, lv_better);
}

TEST_F(PlannerTest, VehicleAccessor) {
  const SunChasePlanner planner(env_.world);
  EXPECT_EQ(planner.vehicle().name(), "Lv prototype");
}

// Property sweep over departure hours, each on several seeded cities
// and trips: plans are always internally consistent (first = fastest,
// Eq. 5 positive for the rest), and the shortest-time candidate Eq. 5
// measures against is the true shortest path — its travel time is the
// Dijkstra baseline's. Default options: Exact pricing, time-dependent
// (SlotQuantized prices at the slot start while the baseline runs on
// the exact clock, so the equality holds under Exact only).
class PlannerDayProperty : public ::testing::TestWithParam<int> {};

struct DayTrip {
  std::uint64_t seed;  ///< GridCityOptions::seed
  int from_row, from_col, to_row, to_col;
  int minute;         ///< departure minute past the hour
  bool crosses_slot;  ///< the shortest route runs into the next slot
};

TEST_P(PlannerDayProperty, InvariantsAtEveryHour) {
  constexpr DayTrip kTrips[] = {{7, 2, 2, 7, 7, 0, false},
                                {11, 0, 0, 11, 11, 10, true},
                                {23, 9, 1, 1, 10, 7, false},
                                {42, 11, 0, 0, 11, 40, true}};
  for (const DayTrip& trip : kTrips) {
    SCOPED_TRACE(::testing::Message() << "seed " << trip.seed << " ("
                                      << trip.from_row << ',' << trip.from_col
                                      << ")->(" << trip.to_row << ','
                                      << trip.to_col << ") at minute "
                                      << trip.minute);
    roadnet::GridCityOptions city_opt;
    city_opt.seed = trip.seed;
    const roadnet::GridCity city(city_opt);
    test::RoutingEnv env(city.graph());
    const SunChasePlanner planner(env.world);
    ASSERT_EQ(planner.options().mlc.pricing, PricingMode::Exact);
    const TimeOfDay dep = TimeOfDay::hms(GetParam(), trip.minute);
    const PlanResult plan =
        planner.plan(city.node_at(trip.from_row, trip.from_col),
                     city.node_at(trip.to_row, trip.to_col), dep);
    ASSERT_FALSE(plan.candidates.empty());
    const auto& base = plan.candidates.front();
    EXPECT_TRUE(base.is_shortest_time);
    const Seconds shortest = plan.search_stats.shortest_travel_time;
    EXPECT_NEAR(base.route.cost.travel_time.value(), shortest.value(),
                1e-9 * shortest.value());
    if (trip.crosses_slot) {
      ASSERT_NE(dep.slot_index(), dep.advanced_by(shortest).slot_index())
          << "the trip no longer crosses a slot boundary";
    }
    for (std::size_t i = 1; i < plan.candidates.size(); ++i) {
      EXPECT_GT(plan.candidates[i].extra_energy.value(), 0.0);
      EXPECT_GE(plan.candidates[i].metrics.travel_time.value(),
                base.metrics.travel_time.value() - 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Hours, PlannerDayProperty,
                         ::testing::Values(9, 10, 12, 14, 16));

}  // namespace
}  // namespace sunchase::core
