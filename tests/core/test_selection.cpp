#include "sunchase/core/selection.h"

#include <gtest/gtest.h>

#include "core_fixture.h"

namespace sunchase::core {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest()
      : city_(roadnet::GridCityOptions{}), env_(city_.graph()) {}

  std::vector<ParetoRoute> pareto(roadnet::NodeId o, roadnet::NodeId d,
                                  TimeOfDay dep) {
    MlcOptions opt;
    opt.max_time_factor = 1.5;
    const MultiLabelCorrecting solver(env_.world, opt);
    return solver.search(o, d, dep).routes;
  }

  roadnet::GridCity city_;
  test::RoutingEnv env_;
};

TEST_F(SelectionTest, EmptyParetoSetYieldsEmptyResult) {
  const SelectionResult r = select_representative_routes(
      {}, env_.world, TimeOfDay::hms(10, 0));
  EXPECT_TRUE(r.candidates.empty());
  EXPECT_EQ(r.cluster_count, 0u);
}

TEST_F(SelectionTest, ShortestTimeRouteAlwaysFirst) {
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto routes = pareto(city_.node_at(1, 1), city_.node_at(7, 8), dep);
  ASSERT_FALSE(routes.empty());
  const SelectionResult r =
      select_representative_routes(routes, env_.world, dep);
  ASSERT_FALSE(r.candidates.empty());
  EXPECT_TRUE(r.candidates.front().is_shortest_time);
  // No candidate is faster than the first.
  for (const auto& c : r.candidates)
    EXPECT_GE(c.metrics.travel_time.value(),
              r.candidates.front().metrics.travel_time.value() - 1e-6);
}

TEST_F(SelectionTest, BetterSolarRoutesPassEquationFive) {
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto routes = pareto(city_.node_at(1, 1), city_.node_at(7, 8), dep);
  const SelectionResult r =
      select_representative_routes(routes, env_.world, dep);
  for (std::size_t i = 1; i < r.candidates.size(); ++i) {
    EXPECT_GT(r.candidates[i].extra_energy.value(), 0.0);
    EXPECT_FALSE(r.candidates[i].is_shortest_time);
    // Reported extra values match the metrics.
    EXPECT_NEAR(r.candidates[i].extra_time.value(),
                r.candidates[i].metrics.travel_time.value() -
                    r.candidates.front().metrics.travel_time.value(),
                1e-6);
  }
}

TEST_F(SelectionTest, CandidatesSortedByExtraEnergy) {
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto routes = pareto(city_.node_at(0, 0), city_.node_at(8, 9), dep);
  const SelectionResult r =
      select_representative_routes(routes, env_.world, dep);
  for (std::size_t i = 2; i < r.candidates.size(); ++i)
    EXPECT_GE(r.candidates[i - 1].extra_energy.value(),
              r.candidates[i].extra_energy.value());
}

TEST_F(SelectionTest, DisablingFilterKeepsAllRepresentatives) {
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto routes = pareto(city_.node_at(1, 1), city_.node_at(7, 8), dep);
  SelectionOptions no_filter;
  no_filter.require_positive_energy_extra = false;
  const SelectionResult all = select_representative_routes(
      routes, env_.world, dep, no_filter);
  const SelectionResult filtered =
      select_representative_routes(routes, env_.world, dep);
  EXPECT_GE(all.candidates.size(), filtered.candidates.size());
  EXPECT_EQ(all.representative_count, filtered.representative_count);
}

TEST_F(SelectionTest, SelectionIsSubsetOfPareto) {
  const TimeOfDay dep = TimeOfDay::hms(11, 0);
  const auto routes = pareto(city_.node_at(2, 2), city_.node_at(9, 9), dep);
  const SelectionResult r =
      select_representative_routes(routes, env_.world, dep);
  for (const auto& cand : r.candidates) {
    const bool found = std::any_of(
        routes.begin(), routes.end(), [&](const ParetoRoute& p) {
          return p.path.edges == cand.route.path.edges;
        });
    EXPECT_TRUE(found);
  }
}

TEST_F(SelectionTest, SingleRoutePareto) {
  // With only one Pareto route, the result is just the shortest-time.
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  auto routes = pareto(city_.node_at(0, 0), city_.node_at(0, 2), dep);
  routes.resize(1);
  const SelectionResult r =
      select_representative_routes(routes, env_.world, dep);
  ASSERT_EQ(r.candidates.size(), 1u);
  EXPECT_TRUE(r.candidates.front().is_shortest_time);
}

TEST_F(SelectionTest, ClusterCountGrowsWithTighterDelta) {
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const auto routes = pareto(city_.node_at(0, 0), city_.node_at(8, 9), dep);
  ASSERT_GE(routes.size(), 4u) << "need a richer Pareto set";
  SelectionOptions coarse;
  coarse.clustering.quality_threshold = 0.5;
  SelectionOptions fine;
  fine.clustering.quality_threshold = 0.02;
  const auto rc = select_representative_routes(routes, env_.world,
                                               dep, coarse);
  const auto rf = select_representative_routes(routes, env_.world,
                                               dep, fine);
  EXPECT_LE(rc.cluster_count, rf.cluster_count);
}

TEST_F(SelectionTest, TeslaFiltersMoreThanLv) {
  // Higher consumption makes Eq. 5 harder to satisfy: across several
  // OD pairs the Tesla never keeps more candidates than Lv's EV.
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  int lv_total = 0, tesla_total = 0;
  for (const auto& [r, c] :
       {std::pair{7, 8}, std::pair{8, 5}, std::pair{6, 9}}) {
    const auto routes_lv = pareto(city_.node_at(1, 1), city_.node_at(r, c),
                                  dep);
    const auto sel_lv = select_representative_routes(routes_lv, env_.world,
                                                     dep);
    // Tesla: re-search with its own consumption criterion.
    MlcOptions opt;
    opt.max_time_factor = 1.5;
    opt.vehicle = test::RoutingEnv::kTesla;
    const MultiLabelCorrecting tesla_solver(env_.world, opt);
    const auto routes_tesla =
        tesla_solver.search(city_.node_at(1, 1), city_.node_at(r, c), dep)
            .routes;
    const auto sel_tesla = select_representative_routes(
        routes_tesla, env_.world, dep, SelectionOptions{},
        test::RoutingEnv::kTesla);
    lv_total += static_cast<int>(sel_lv.candidates.size());
    tesla_total += static_cast<int>(sel_tesla.candidates.size());
  }
  EXPECT_LE(tesla_total, lv_total);
}

}  // namespace
}  // namespace sunchase::core
