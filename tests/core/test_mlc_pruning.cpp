// Lower-bound budget pruning must be invisible in the results: the
// budgeted Pareto set is bit for bit (costs AND paths) the unbounded
// search's routes within the budget, on the paper world and a generated
// urban grid, at rush hour, under both pricing modes, and with the
// clock saturated at the end of the day — while the budgeted search
// explores strictly less.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/core/mlc.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/shadow/scenegen.h"

namespace sunchase::core {
namespace {

/// RoutingEnv's snapshot recipe with UrbanTraffic swapped in: the
/// time-dependent traffic model whose congestion dips make the
/// admissibility question real (a static bound must undercut every
/// rush-hour speed).
core::WorldPtr urban_world(const roadnet::RoadGraph& g) {
  core::WorldInit init = test::RoutingEnv::make_init(g);
  init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
      roadnet::UrbanTraffic::Options{});
  return core::World::create(std::move(init));
}

/// The bench paper world (12x12 grid, generated scene, exact 15-minute
/// shading, urban traffic), built once — compute_exact is the
/// expensive part.
const core::WorldPtr& paper_world() {
  static const core::WorldPtr snapshot = [] {
    roadnet::GridCityOptions opt;
    opt.rows = 12;
    opt.cols = 12;
    const roadnet::GridCity city(opt);
    const geo::LocalProjection projection(city.options().origin);
    const shadow::Scene scene = shadow::generate_scene(
        city.graph(), projection, shadow::SceneGenOptions{});
    auto graph = std::make_shared<const roadnet::RoadGraph>(city.graph());
    WorldInit init;
    init.graph = graph;
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::compute_exact(*graph, scene,
                                              geo::DayOfYear{196},
                                              TimeOfDay::hms(8, 0),
                                              TimeOfDay::hms(18, 30)));
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_lv_prototype()));
    return World::create(std::move(init));
  }();
  return snapshot;
}

/// The budgeted search of one query and the unbounded search's routes
/// within the same budget must agree bit for bit, and the budgeted
/// search must not have created or popped more labels. Returns the
/// budgeted and the unbounded stats, for the callers' strict checks.
std::pair<MlcStats, MlcStats> expect_bit_identical(
    const core::WorldPtr& world, roadnet::NodeId o, roadnet::NodeId d,
    TimeOfDay dep, PricingMode pricing, double max_time_factor = 1.5) {
  MlcOptions budgeted_opt;
  budgeted_opt.max_time_factor = max_time_factor;
  budgeted_opt.pricing = pricing;
  MlcOptions unbounded_opt = budgeted_opt;
  unbounded_opt.max_time_factor = 0.0;
  const MlcResult budgeted =
      MultiLabelCorrecting(world, budgeted_opt).search(o, d, dep);
  MlcResult unbounded =
      MultiLabelCorrecting(world, unbounded_opt).search(o, d, dep);
  const double bound =
      budgeted.stats.shortest_travel_time.value() * max_time_factor;
  std::erase_if(unbounded.routes, [&](const ParetoRoute& r) {
    return r.cost.travel_time.value() > bound;
  });

  EXPECT_EQ(budgeted.routes.size(), unbounded.routes.size())
      << "the budget changed the Pareto set inside it";
  for (std::size_t r = 0;
       r < std::min(budgeted.routes.size(), unbounded.routes.size()); ++r) {
    EXPECT_EQ(budgeted.routes[r].cost, unbounded.routes[r].cost);
    EXPECT_EQ(budgeted.routes[r].path.edges, unbounded.routes[r].path.edges);
  }
  EXPECT_LE(budgeted.stats.labels_created, unbounded.stats.labels_created);
  EXPECT_LE(budgeted.stats.queue_pops, unbounded.stats.queue_pops);
  return {budgeted.stats, unbounded.stats};
}

/// Strictly less search work under the budget than without one.
void expect_strictly_less(const std::pair<MlcStats, MlcStats>& stats) {
  const auto& [budgeted, unbounded] = stats;
  EXPECT_LT(budgeted.labels_created, unbounded.labels_created);
  EXPECT_LT(budgeted.queue_pops, unbounded.queue_pops);
}

TEST(MlcPruning, CtorRejectsNonFiniteTimeFactor) {
  // The NaN budget bypass: NaN fails every ordered comparison, so the
  // old range checks let it through and time_bound poisoned to NaN
  // disabled the only prune the search had.
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    MlcOptions opt;
    opt.max_time_factor = bad;
    EXPECT_THROW(MultiLabelCorrecting(env.world, opt), InvalidArgument)
        << "max_time_factor = " << bad;
  }
}

TEST(MlcPruning, BitIdenticalOnUrbanGridAtRushHour) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  const std::vector<std::pair<roadnet::NodeId, roadnet::NodeId>> trips = {
      {city.node_at(0, 0), city.node_at(9, 9)},
      {city.node_at(1, 1), city.node_at(6, 7)},
      {city.node_at(9, 0), city.node_at(0, 9)},
  };
  // 08:30 sits at the morning congestion peak: entry speeds are far
  // below the free-flow bound the reverse Dijkstra uses, the widest
  // admissibility gap the model can produce.
  std::pair<MlcStats, MlcStats> total;
  for (const auto& [o, d] : trips)
    for (const PricingMode pricing :
         {PricingMode::Exact, PricingMode::SlotQuantized}) {
      const auto [budgeted, unbounded] =
          expect_bit_identical(world, o, d, TimeOfDay::hms(8, 30), pricing);
      total.first.labels_created += budgeted.labels_created;
      total.first.queue_pops += budgeted.queue_pops;
      total.second.labels_created += unbounded.labels_created;
      total.second.queue_pops += unbounded.queue_pops;
    }
  // Summed over the trips: on the two shorter ones every label the 1.5x
  // budget cuts is one their staircases reject anyway, so there it
  // saves dominance checks, not labels.
  expect_strictly_less(total);
}

TEST(MlcPruning, BitIdenticalOnThePaperWorld) {
  const core::WorldPtr& world = paper_world();
  const auto& graph = world->graph();
  const roadnet::NodeId o = 0;
  const auto d = static_cast<roadnet::NodeId>(graph.node_count() - 1);
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized})
    expect_strictly_less(
        expect_bit_identical(world, o, d, TimeOfDay::hms(8, 30), pricing));
}

TEST(MlcPruning, PruningMeasurablyShrinksTheSearch) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  // A tight budget (20% slack, the paper's extra-travel-time regime).
  const auto stats = expect_bit_identical(
      world, city.node_at(0, 0), city.node_at(9, 9), TimeOfDay::hms(8, 30),
      PricingMode::Exact, 1.2);
  expect_strictly_less(stats);
  const auto& [budgeted, unbounded] = stats;
  EXPECT_GT(budgeted.labels_pruned_bound, 0u);
  EXPECT_GT(budgeted.lower_bound_seconds, 0.0);
  // The unbounded search never builds lower bounds.
  EXPECT_EQ(unbounded.lower_bound_seconds, 0.0);
  EXPECT_EQ(unbounded.labels_pruned_bound, 0u);
}

TEST(MlcPruning, MidnightSaturationStaysAdmissible) {
  // A trip departing 23:59 saturates: every advanced_by lands in slot
  // 95 and stays there. The static lower bound must remain admissible
  // against that frozen clock — no route of the unbounded search within
  // the budget may be lost to pruning.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  const core::WorldPtr world = urban_world(city.graph());
  const TimeOfDay dep = TimeOfDay::hms(23, 59);
  // The saturation premise itself: one hour past 23:59 is still the
  // last slot of the day.
  EXPECT_EQ(dep.advanced_by(Seconds{3600.0}).slot_index(),
            TimeOfDay::kSlotsPerDay - 1);
  for (const PricingMode pricing :
       {PricingMode::Exact, PricingMode::SlotQuantized})
    expect_strictly_less(expect_bit_identical(
        world, city.node_at(1, 1), city.node_at(8, 8), dep, pricing));
}

TEST(MlcPruning, DisabledBudgetSkipsTheLowerBoundBuild) {
  // max_time_factor = 0: nothing to prune against, so no reverse
  // Dijkstra runs.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 0.0;
  const MlcResult result = MultiLabelCorrecting(env.world, opt).search(
      city.node_at(1, 1), city.node_at(4, 4), TimeOfDay::hms(10, 0));
  EXPECT_EQ(result.stats.lower_bound_seconds, 0.0);
  EXPECT_EQ(result.stats.labels_pruned_bound, 0u);
}

}  // namespace
}  // namespace sunchase::core
