// Battery-budget feasibility in route selection: the range-anxiety
// check ("if the vehicle battery totally relies on the solar power, it
// may not have enough energy to reach the destination", Sec. III-A).
#include <gtest/gtest.h>

#include "core_fixture.h"
#include "sunchase/core/planner.h"

namespace sunchase::core {
namespace {

class BatteryPlanningTest : public ::testing::Test {
 protected:
  BatteryPlanningTest()
      : city_(roadnet::GridCityOptions{}), env_(city_.graph()) {}

  roadnet::GridCity city_;
  test::RoutingEnv env_;
};

TEST_F(BatteryPlanningTest, GenerousBudgetChangesNothing) {
  PlannerOptions with;
  with.selection.battery_budget = WattHours{100000.0};
  const SunChasePlanner constrained(env_.world, with);
  const SunChasePlanner unconstrained(env_.world);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto a = constrained.plan(city_.node_at(1, 1), city_.node_at(8, 8),
                                  dep);
  const auto b = unconstrained.plan(city_.node_at(1, 1), city_.node_at(8, 8),
                                    dep);
  EXPECT_EQ(a.candidates.size(), b.candidates.size());
  for (const auto& cand : a.candidates) EXPECT_TRUE(cand.battery_feasible);
}

TEST_F(BatteryPlanningTest, TinyBudgetFlagsShortestTimeInfeasible) {
  PlannerOptions opt;
  opt.selection.battery_budget = WattHours{1.0};  // ~60 Wh needed
  const SunChasePlanner planner(env_.world, opt);
  const auto plan = planner.plan(city_.node_at(1, 1), city_.node_at(8, 8),
                                 TimeOfDay::hms(10, 0));
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_FALSE(plan.candidates.front().battery_feasible);
  // All better-solar candidates were dropped as infeasible too.
  EXPECT_EQ(plan.candidates.size(), 1u);
}

TEST_F(BatteryPlanningTest, IntermediateBudgetDropsOnlyHungryCandidates) {
  // Find the unconstrained candidate set, then set the budget between
  // the cheapest and the most expensive net drain.
  const SunChasePlanner free_planner(env_.world);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto free_plan =
      free_planner.plan(city_.node_at(1, 1), city_.node_at(8, 8), dep);
  ASSERT_GE(free_plan.candidates.size(), 2u)
      << "need at least one better-solar candidate";
  // Budget just below the hungriest better-solar candidate's drain:
  // that candidate must vanish; the shortest-time route stays (only
  // flagged when infeasible).
  double hungriest = -1e18;
  for (std::size_t i = 1; i < free_plan.candidates.size(); ++i)
    hungriest =
        std::max(hungriest, free_plan.candidates[i].net_drain().value());
  const double budget = hungriest - 1e-3;

  PlannerOptions opt;
  opt.selection.battery_budget = WattHours{budget};
  const SunChasePlanner planner(env_.world, opt);
  const auto plan = planner.plan(city_.node_at(1, 1), city_.node_at(8, 8),
                                 dep);
  EXPECT_LT(plan.candidates.size(), free_plan.candidates.size());
  for (std::size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_TRUE(plan.candidates[i].battery_feasible);
    EXPECT_LE(plan.candidates[i].net_drain().value(), budget + 1e-9);
  }
}

TEST_F(BatteryPlanningTest, NetDrainArithmetic) {
  CandidateRoute cand;
  cand.metrics.energy_out = WattHours{50.0};
  cand.metrics.energy_in = WattHours{12.0};
  EXPECT_DOUBLE_EQ(cand.net_drain().value(), 38.0);
}

}  // namespace
}  // namespace sunchase::core
