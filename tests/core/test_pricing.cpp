// The exact pricing primitive: detail::price_edges and the batched
// TrafficModel::speeds under it must be bit-identical to pricing one
// edge at a time through SolarInputMap::evaluate, TrafficModel::speed
// and the vehicle's consumption — compared with operator==, never a
// tolerance — and the search built on it must keep its outputs and
// its pinned effort counters and "solar.evaluate_calls" count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"
#include "sunchase/core/slot_cost_cache.h"
#include "sunchase/obs/metrics.h"

namespace sunchase::core {
namespace {

/// RoutingEnv's recipe on an n x n grid, with UrbanTraffic swapped in
/// when `urban` (continuous congestion: every clock prices differently).
WorldPtr grid_world(int n, bool urban) {
  roadnet::GridCityOptions opt;
  opt.rows = n;
  opt.cols = n;
  const roadnet::GridCity city(opt);
  WorldInit init = test::RoutingEnv::make_init(city.graph());
  if (urban)
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
  return World::create(std::move(init));
}

/// Every 15-minute slot start, its midpoint, and the last microsecond
/// before the next boundary.
std::vector<TimeOfDay> pricing_clocks() {
  std::vector<TimeOfDay> clocks;
  for (int slot = 0; slot < TimeOfDay::kSlotsPerDay; ++slot) {
    const TimeOfDay start = TimeOfDay::slot_start(slot);
    clocks.push_back(start);
    clocks.push_back(start.advanced_by(Seconds{TimeOfDay::kSlotSeconds / 2.0}));
    clocks.push_back(
        start.advanced_by(Seconds{TimeOfDay::kSlotSeconds - 1e-6}));
  }
  return clocks;
}

/// The one-edge-at-a-time price the batched primitive must reproduce.
Criteria reference_price(const solar::SolarInputMap& map,
                         const ev::ConsumptionModel& vehicle,
                         roadnet::EdgeId e, TimeOfDay when) {
  const solar::EdgeSolar es = map.evaluate(e, when);
  const MetersPerSecond v = map.traffic().speed(map.graph(), e, when);
  return Criteria{es.travel_time, es.shaded_time,
                  vehicle.consumption(map.graph().edge(e).length, v)};
}

std::uint64_t evaluate_calls() {
  return obs::Registry::global().counter("solar.evaluate_calls").value();
}

class EdgePricing : public ::testing::TestWithParam<bool> {};

TEST_P(EdgePricing, MatchesEvaluateSpeedAndConsumptionBitForBit) {
  const WorldPtr world = grid_world(10, /*urban=*/GetParam());
  const solar::SolarInputMap& map = world->solar_map();
  const roadnet::RoadGraph& graph = world->graph();
  for (std::size_t v = 0; v < world->vehicle_count(); ++v) {
    const ev::ConsumptionModel& vehicle = world->vehicle(v);
    for (const TimeOfDay when : pricing_clocks()) {
      // Node by node, as the search prices one expansion.
      for (roadnet::NodeId node = 0; node < graph.node_count(); ++node) {
        const auto edges = graph.out_edges(node);
        std::vector<MetersPerSecond> speeds(edges.size());
        std::vector<Criteria> prices(edges.size());
        detail::price_edges(map, vehicle, edges, when, speeds, prices);
        for (std::size_t i = 0; i < edges.size(); ++i) {
          const roadnet::EdgeId e = edges[i];
          ASSERT_EQ(prices[i], reference_price(map, vehicle, e, when))
              << "edge " << e << " at " << when.to_string();
          ASSERT_EQ(speeds[i].value(),
                    map.traffic().speed(graph, e, when).value());
          ASSERT_EQ(detail::edge_criteria(map, vehicle, e, when), prices[i]);
          ASSERT_EQ(map.evaluate(e, when).speed.value(), speeds[i].value());
        }
      }
    }
  }
}

TEST_P(EdgePricing, WholeGraphBatchMatchesOneEdgeAtATime) {
  const WorldPtr world = grid_world(10, /*urban=*/GetParam());
  const solar::SolarInputMap& map = world->solar_map();
  const roadnet::RoadGraph& graph = world->graph();
  std::vector<roadnet::EdgeId> all(graph.edge_count());
  std::iota(all.begin(), all.end(), roadnet::EdgeId{0});
  std::vector<MetersPerSecond> speeds(all.size());
  std::vector<Criteria> prices(all.size());
  for (const TimeOfDay when : pricing_clocks()) {
    detail::price_edges(map, world->vehicle(0), all, when, speeds, prices);
    for (const roadnet::EdgeId e : all)
      ASSERT_EQ(prices[e], reference_price(map, world->vehicle(0), e, when))
          << "edge " << e << " at " << when.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Traffic, EdgePricing, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "Urban" : "Uniform";
                         });

TEST(EdgePricingBuffers, ShortBuffersThrow) {
  const WorldPtr world = grid_world(3, /*urban=*/true);
  const auto edges = world->graph().out_edges(4);  // the centre node
  ASSERT_GE(edges.size(), 2u);
  std::vector<MetersPerSecond> speeds(edges.size());
  std::vector<Criteria> prices(edges.size());
  std::vector<MetersPerSecond> short_speeds(edges.size() - 1);
  std::vector<Criteria> short_prices(edges.size() - 1);
  const TimeOfDay when = TimeOfDay::hms(9, 0);
  EXPECT_THROW(detail::price_edges(world->solar_map(), world->vehicle(0),
                                   edges, when, speeds, short_prices),
               InvalidArgument);
  EXPECT_THROW(detail::price_edges(world->solar_map(), world->vehicle(0),
                                   edges, when, short_speeds, prices),
               InvalidArgument);
}

/// FNV-1a over the bits of every route's cost and its edge ids: equal
/// fingerprints mean bit-identical frontiers, paths included.
std::uint64_t fingerprint(const MlcResult& result) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const ParetoRoute& route : result.routes) {
    const double cost[3] = {route.cost.travel_time.value(),
                            route.cost.shaded_time.value(),
                            route.cost.energy_out.value()};
    mix(cost, sizeof cost);
    mix(route.path.edges.data(),
        route.path.edges.size() * sizeof(roadnet::EdgeId));
  }
  return h;
}

struct PinnedQuery {
  bool prune;
  std::uint64_t fingerprint;
  std::size_t pareto_size;
  std::size_t labels_created;
  std::size_t dominance_checks;
  std::size_t queue_pops;
  std::uint64_t evaluate_calls;

  friend void PrintTo(const PinnedQuery& pin, std::ostream* os) {
    *os << (pin.prune ? "pruned" : "unpruned");
  }
};

class EdgePricingPinned : public ::testing::TestWithParam<PinnedQuery> {};

TEST_P(EdgePricingPinned, ExactQueryKeepsItsFrontierEffortAndPricingCount) {
  // Frontier, Pareto size, labels and pops recorded from the per-edge
  // pricer that preceded the batched one: batching must change no bit
  // of them. Dominance checks and "solar.evaluate_calls" were re-pinned
  // when expansions stopped pricing U-turns (edges back to the parent
  // label's node): the pricings drop by exactly the skipped edges
  // (5292 -> 3966 and 5445 -> 4094), the checks by those of them that
  // made the time budget (7613 -> 6323 and 8082 -> 6731).
  const PinnedQuery& pin = GetParam();
  roadnet::GridCityOptions opt;
  opt.rows = 12;
  opt.cols = 12;
  const roadnet::GridCity city(opt);
  const WorldPtr world = grid_world(12, /*urban=*/true);
  MlcOptions options;
  options.max_time_factor = 1.1;
  options.prune_with_lower_bounds = pin.prune;
  const MultiLabelCorrecting solver(world, options);

  const std::uint64_t before = evaluate_calls();
  // Corner to corner at 08:50: rush-hour congestion and the 09:00
  // shading change both fall inside the trip.
  const MlcResult result = solver.search(
      city.node_at(0, 0), city.node_at(11, 11), TimeOfDay::hms(8, 50));
  EXPECT_EQ(evaluate_calls() - before, pin.evaluate_calls);
  EXPECT_EQ(fingerprint(result), pin.fingerprint);
  EXPECT_EQ(result.routes.size(), pin.pareto_size);
  EXPECT_EQ(result.stats.labels_created, pin.labels_created);
  EXPECT_EQ(result.stats.dominance_checks, pin.dominance_checks);
  EXPECT_EQ(result.stats.queue_pops, pin.queue_pops);
}

INSTANTIATE_TEST_SUITE_P(
    Grid12, EdgePricingPinned,
    ::testing::Values(PinnedQuery{true, 0xdddba24c63d35b4cull, 35, 2539, 6323,
                                  2539, 3966},
                      PinnedQuery{false, 0xdddba24c63d35b4cull, 35, 2637,
                                  6731, 2637, 4094}),
    [](const ::testing::TestParamInfo<PinnedQuery>& param) {
      return param.param.prune ? "Pruned" : "Unpruned";
    });

TEST(EdgePricingCounter, ColumnFillCountsOneEvaluationPerEdge) {
  const WorldPtr world = grid_world(12, /*urban=*/true);
  ASSERT_EQ(world->graph().edge_count(), 440u);
  const std::uint64_t before = evaluate_calls();
  (void)world->slot_cache(0).at(0, 36);  // fills the 09:00 column
  EXPECT_EQ(evaluate_calls() - before, 440u);
  (void)world->slot_cache(0).at(7, 36);  // a hit prices nothing
  EXPECT_EQ(evaluate_calls() - before, 440u);
}

TEST(EdgePricingCounter, EdgeCriteriaCountsOnePricing) {
  const WorldPtr world = grid_world(3, /*urban=*/false);
  const std::uint64_t before = evaluate_calls();
  (void)edge_criteria(world, 0, TimeOfDay::hms(9, 0));
  EXPECT_EQ(evaluate_calls() - before, 1u);
}

}  // namespace
}  // namespace sunchase::core
