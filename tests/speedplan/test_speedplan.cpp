#include "sunchase/speedplan/speedplan.h"

#include <gtest/gtest.h>

#include "core/core_fixture.h"
#include "sunchase/core/planner.h"
#include "sunchase/common/error.h"

namespace sunchase::speedplan {
namespace {

SegmentSpec lit(double meters, double watts = 200.0) {
  return SegmentSpec{Meters{meters}, 1.0, Watts{watts}};
}
SegmentSpec dark(double meters) {
  return SegmentSpec{Meters{meters}, 0.0, Watts{200.0}};
}

class SpeedPlanTest : public ::testing::Test {
 protected:
  std::unique_ptr<ev::ConsumptionModel> lv_ = ev::make_lv_prototype();
};

TEST_F(SpeedPlanTest, GenerousBatteryDrivesFlatOut) {
  const auto result = plan_speeds({lit(500), dark(500)}, *lv_,
                                  WattHours{5000.0}, WattHours{5000.0});
  ASSERT_TRUE(result.feasible);
  const SpeedPlanOptions defaults;
  for (const SegmentPlan& seg : result.segments)
    EXPECT_NEAR(seg.speed.value(), defaults.max_speed.value(), 1e-9);
}

TEST_F(SpeedPlanTest, TotalTimeIsSumOfSegmentTimes) {
  const auto result = plan_speeds({lit(400), dark(300), lit(200)}, *lv_,
                                  WattHours{1000.0}, WattHours{1000.0});
  ASSERT_TRUE(result.feasible);
  double sum = 0.0;
  for (const SegmentPlan& seg : result.segments) sum += seg.time.value();
  EXPECT_NEAR(result.total_time.value(), sum, 1e-9);
}

TEST_F(SpeedPlanTest, TightBatterySlowsDown) {
  // 2 km under a strong panel with almost no battery: the planner must
  // slow down so harvest keeps up; with a big battery it flies.
  const std::vector<SegmentSpec> route{lit(1000, 500.0), lit(1000, 500.0)};
  const auto rich =
      plan_speeds(route, *lv_, WattHours{200.0}, WattHours{200.0});
  const auto poor = plan_speeds(route, *lv_, WattHours{8.0}, WattHours{200.0});
  ASSERT_TRUE(rich.feasible);
  ASSERT_TRUE(poor.feasible);
  EXPECT_GT(poor.total_time.value(), rich.total_time.value());
}

TEST_F(SpeedPlanTest, InfeasibleWhenBatteryCannotSurvive) {
  // Fully shaded long route with a near-empty battery: no speed works
  // (consumption is at least b Wh/km regardless of speed).
  const auto result = plan_speeds({dark(2000)}, *lv_, WattHours{5.0},
                                  WattHours{100.0});
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.segments.empty());
}

TEST_F(SpeedPlanTest, EnergyTightPlanSlowsIlluminatedSegmentsFirst) {
  // Equal-length lit and dark segments under a tight budget: slowing
  // on the lit one both harvests more and consumes less, so its speed
  // must not exceed the dark one's.
  const std::vector<SegmentSpec> route{lit(800, 500.0), dark(800)};
  const auto result =
      plan_speeds(route, *lv_, WattHours{30.0}, WattHours{100.0});
  ASSERT_TRUE(result.feasible);
  EXPECT_LE(result.segments[0].speed.value(),
            result.segments[1].speed.value() + 1e-9);
}

TEST_F(SpeedPlanTest, BatteryNeverNegativeAlongThePlan) {
  const std::vector<SegmentSpec> route{dark(600), lit(900), dark(400),
                                       lit(700)};
  // 50 Wh is just above the smallest feasible start for this route
  // (45 Wh is not), so the battery runs close to empty and the
  // constraint binds.
  const auto result =
      plan_speeds(route, *lv_, WattHours{50.0}, WattHours{60.0});
  ASSERT_TRUE(result.feasible);
  double battery = 50.0;
  for (const SegmentPlan& seg : result.segments) {
    battery += seg.harvested.value() - seg.consumed.value();
    battery = std::min(battery, 60.0);
    EXPECT_GE(battery, -1e-6);
  }
  EXPECT_NEAR(battery, result.final_battery.value(), 60.0 / 400 + 1e-6);
}

TEST_F(SpeedPlanTest, HarvestMatchesEquationTwo) {
  const auto result =
      plan_speeds({lit(720, 250.0)}, *lv_, WattHours{500.0},
                  WattHours{500.0});
  ASSERT_TRUE(result.feasible);
  const SegmentPlan& seg = result.segments[0];
  // Eq. 2: E = C * t_solar (fully illuminated segment).
  EXPECT_NEAR(seg.harvested.value(), 250.0 * seg.time.value() / 3600.0,
              1e-9);
}

TEST_F(SpeedPlanTest, Validation) {
  EXPECT_THROW((void)plan_speeds({}, *lv_, WattHours{10}, WattHours{10}),
               InvalidArgument);
  EXPECT_THROW((void)plan_speeds({lit(100)}, *lv_, WattHours{10},
                                 WattHours{0.0}),
               InvalidArgument);
  EXPECT_THROW((void)plan_speeds({lit(100)}, *lv_, WattHours{20},
                                 WattHours{10}),
               InvalidArgument);
  SpeedPlanOptions bad;
  bad.max_speed = bad.min_speed;
  EXPECT_THROW((void)plan_speeds({lit(100)}, *lv_, WattHours{5},
                                 WattHours{10}, bad),
               InvalidArgument);
  EXPECT_THROW((void)plan_speeds({SegmentSpec{Meters{0.0}, 0.5, Watts{200}}},
                                 *lv_, WattHours{5}, WattHours{10}),
               InvalidArgument);
  EXPECT_THROW((void)plan_speeds({SegmentSpec{Meters{10.0}, 1.5, Watts{200}}},
                                 *lv_, WattHours{5}, WattHours{10}),
               InvalidArgument);
}

TEST_F(SpeedPlanTest, SegmentsFromRouteSplitsByShade) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  roadnet::Path path;
  path.edges = {sq.graph.find_edge(0, 1), sq.graph.find_edge(1, 3)};
  const auto segments =
      segments_from_route(env.map, path, TimeOfDay::hms(10, 0));
  ASSERT_FALSE(segments.empty());
  // Total length preserved (within the 0.5 m drop threshold per part).
  double total = 0.0;
  for (const SegmentSpec& seg : segments) {
    total += seg.length.value();
    EXPECT_TRUE(seg.solar_fraction == 0.0 || seg.solar_fraction == 1.0);
    EXPECT_DOUBLE_EQ(seg.panel_power.value(), 200.0);
  }
  EXPECT_NEAR(total, path_length(path, sq.graph).value(), 2.0);
}

TEST_F(SpeedPlanTest, IntegrationWithSunChaseRoute) {
  // The paper's integration: route with SunChase, then speed-plan the
  // chosen route. The plan must be feasible on a modest battery and
  // must not be slower than crawling everywhere at minimum speed.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  const core::SunChasePlanner planner(env.world);
  const auto plan = planner.plan(city.node_at(1, 1), city.node_at(7, 7),
                                 TimeOfDay::hms(10, 0));
  const auto& route = plan.recommended().route.path;
  const auto segments =
      segments_from_route(env.map, route, TimeOfDay::hms(10, 0));
  const auto speed_plan = plan_speeds(segments, env.lv, WattHours{500.0},
                                      WattHours{500.0});
  ASSERT_TRUE(speed_plan.feasible);
  const SpeedPlanOptions defaults;
  double crawl_time = 0.0;
  for (const SegmentSpec& seg : segments)
    crawl_time += seg.length.value() / defaults.min_speed.value();
  EXPECT_LT(speed_plan.total_time.value(), crawl_time);
}

// Property sweep: whatever the battery budget, a feasible plan's final
// battery is within capacity and its time decreases as budget grows.
class SpeedPlanBudgetProperty : public ::testing::TestWithParam<double> {};

TEST_P(SpeedPlanBudgetProperty, MonotoneInBudget) {
  const auto lv = ev::make_lv_prototype();
  const std::vector<SegmentSpec> route{
      SegmentSpec{Meters{700}, 1.0, Watts{200}},
      SegmentSpec{Meters{500}, 0.0, Watts{200}},
      SegmentSpec{Meters{600}, 1.0, Watts{200}}};
  const double budget = GetParam();
  const auto tight = plan_speeds(route, *lv, WattHours{budget},
                                 WattHours{200.0});
  const auto loose = plan_speeds(route, *lv, WattHours{budget + 20.0},
                                 WattHours{200.0});
  if (!tight.feasible) {
    SUCCEED();
    return;
  }
  ASSERT_TRUE(loose.feasible);
  EXPECT_LE(loose.total_time.value(), tight.total_time.value() + 1e-6);
  EXPECT_LE(tight.final_battery.value(), 200.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SpeedPlanBudgetProperty,
                         ::testing::Values(10.0, 20.0, 40.0, 80.0, 160.0));

}  // namespace
}  // namespace sunchase::speedplan
