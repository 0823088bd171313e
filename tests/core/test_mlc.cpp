#include "sunchase/core/mlc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core_fixture.h"
#include "sunchase/common/error.h"

namespace sunchase::core {
namespace {

MlcOptions static_unbounded() {
  MlcOptions opt;
  opt.max_time_factor = 0.0;    // full Pareto set
  opt.time_dependent = false;   // static costs -> brute force comparable
  return opt;
}

TEST(Mlc, MatchesBruteForceOnSquareGraph) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, static_unbounded());
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult result = solver.search(0, 3, dep);
  const auto expected =
      test::brute_force_pareto(env.map, env.lv, 0, 3, dep);

  ASSERT_EQ(result.routes.size(), expected.size());
  for (const auto& route : result.routes) {
    const bool found = std::any_of(
        expected.begin(), expected.end(), [&](const ParetoRoute& e) {
          return equivalent(e.cost, route.cost);
        });
    EXPECT_TRUE(found) << "unexpected cost (" << route.cost.travel_time.value()
                       << ", " << route.cost.shaded_time.value() << ", "
                       << route.cost.energy_out.value() << ")";
  }
}

// The decisive correctness check: MLC against exhaustive enumeration on
// randomized grid cities with one-way streets.
class MlcBruteForceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MlcBruteForceProperty, FullParetoSetMatches) {
  roadnet::GridCityOptions opt;
  opt.rows = 3;
  opt.cols = 4;  // small enough for exhaustive DFS
  opt.one_way_fraction = 0.5;
  opt.seed = GetParam();
  const roadnet::GridCity city(opt);
  test::RoutingEnv env(city.graph());
  const MultiLabelCorrecting solver(env.world, static_unbounded());
  const TimeOfDay dep = TimeOfDay::hms(11, 0);
  const roadnet::NodeId o = city.node_at(0, 0);
  const roadnet::NodeId d = city.node_at(2, 3);

  const MlcResult result = solver.search(o, d, dep);
  const auto expected = test::brute_force_pareto(env.map, env.lv, o, d, dep);

  ASSERT_EQ(result.routes.size(), expected.size());
  for (const auto& route : result.routes) {
    EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [&](const ParetoRoute& e) {
                              return equivalent(e.cost, route.cost);
                            }));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlcBruteForceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// The same check for the search the server runs: time-dependent
// pricing (each edge priced at the clock the route enters it), Exact and
// SlotQuantized, under uniform and rush-hour traffic, with a time budget
// and the lower-bound prune on and off. Departures sit just before
// 15-minute slot boundaries so routes cross them mid-trip.
//
// Across a boundary the principle of optimality can fail: a path
// dominated at an intermediate node enters the rest of the route later,
// possibly in a less shaded slot, and can end on the frontier. No
// label-setting search finds such a route (Algorithm 1 discards the
// dominated prefix), so completeness is required for every frontier
// route whose prefixes are all Pareto-optimal at their nodes, and every
// returned route must be on the exhaustive frontier.
struct TimeDependentCase {
  std::uint64_t seed;
  bool urban_traffic;
  PricingMode pricing;
  bool prune;
};

class MlcTimeDependentOracle
    : public ::testing::TestWithParam<TimeDependentCase> {};

TEST_P(MlcTimeDependentOracle, ParetoSetMatchesExhaustiveSearch) {
  const TimeDependentCase c = GetParam();
  roadnet::GridCityOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  opt.one_way_fraction = 0.5;
  opt.seed = c.seed;
  const roadnet::GridCity city(opt);
  WorldInit init = test::RoutingEnv::make_init(city.graph());
  if (c.urban_traffic)
    init.traffic = std::make_shared<const roadnet::UrbanTraffic>(
        roadnet::UrbanTraffic::Options{});
  const WorldPtr world = World::create(std::move(init));
  const auto& graph = world->graph();
  const auto& map = world->solar_map();
  const auto& lv = world->vehicle(test::RoutingEnv::kLv);

  MlcOptions mlc;
  mlc.max_time_factor = 1.5;
  mlc.pricing = c.pricing;
  mlc.prune_with_lower_bounds = c.prune;
  const MultiLabelCorrecting solver(world, mlc);

  const std::vector<std::pair<roadnet::NodeId, roadnet::NodeId>> trips = {
      {city.node_at(0, 0), city.node_at(3, 3)},
      {city.node_at(3, 3), city.node_at(0, 0)},
      {city.node_at(0, 3), city.node_at(3, 0)},
      {city.node_at(3, 0), city.node_at(1, 2)},
  };
  int compared = 0;
  for (const auto& [o, d] : trips)
    for (const TimeOfDay dep :
         {TimeOfDay::hms(8, 58, 30), TimeOfDay::hms(9, 14, 0),
          TimeOfDay::hms(12, 13, 45), TimeOfDay::hms(16, 59, 10)}) {
      const auto trip = [&] {
        return std::to_string(o) + "->" + std::to_string(d) + " @ " +
               dep.to_string();
      };
      const auto price = [&](roadnet::EdgeId e, const Criteria& so_far) {
        return detail::edge_criteria(
            map, lv, e,
            pricing_time(dep.advanced_by(so_far.travel_time), c.pricing));
      };
      MlcResult got;
      try {
        got = solver.search(o, d, dep);
      } catch (const RoutingError&) {
        EXPECT_TRUE(test::brute_force_pareto_time_dependent(
                        map, lv, o, d, dep, c.pricing, 0.0)
                        .empty())
            << trip();
        continue;
      }
      const double budget =
          got.stats.shortest_travel_time.value() * mlc.max_time_factor;
      test::PrefixCosts prefixes;
      const auto expected = test::brute_force_pareto_time_dependent(
          map, lv, o, d, dep, c.pricing, budget, &prefixes);
      ++compared;

      // Sound: each route is real, priced as reported, on the frontier.
      for (const auto& route : got.routes) {
        Criteria repriced;
        for (const roadnet::EdgeId e : route.path.edges)
          repriced += price(e, repriced);
        EXPECT_EQ(route.cost, repriced) << trip();
        EXPECT_TRUE(std::any_of(expected.begin(), expected.end(),
                                [&](const ParetoRoute& e) {
                                  return equivalent(e.cost, route.cost);
                                }))
            << trip();
      }
      // Complete wherever the principle of optimality holds.
      for (const auto& want : expected) {
        bool prefix_optimal = true;
        Criteria prefix;
        for (const roadnet::EdgeId e : want.path.edges) {
          prefix += price(e, prefix);
          const auto& rivals = prefixes[graph.edge(e).to];
          prefix_optimal =
              prefix_optimal &&
              std::none_of(rivals.begin(), rivals.end(),
                           [&](const Criteria& r) {
                             return dominates(r, prefix);
                           });
        }
        if (!prefix_optimal) continue;
        EXPECT_TRUE(std::any_of(got.routes.begin(), got.routes.end(),
                                [&](const ParetoRoute& r) {
                                  return equivalent(r.cost, want.cost);
                                }))
            << trip() << ": missing a frontier route of "
            << want.path.edges.size() << " edges";
      }
    }
  EXPECT_GT(compared, 0);
}

std::vector<TimeDependentCase> time_dependent_cases() {
  std::vector<TimeDependentCase> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u})
    for (const bool urban : {false, true})
      for (const PricingMode pricing :
           {PricingMode::Exact, PricingMode::SlotQuantized})
        for (const bool prune : {false, true})
          cases.push_back(TimeDependentCase{seed, urban, pricing, prune});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, MlcTimeDependentOracle,
    ::testing::ValuesIn(time_dependent_cases()),
    [](const ::testing::TestParamInfo<TimeDependentCase>& param_info) {
      const TimeDependentCase& c = param_info.param;
      return "Seed" + std::to_string(c.seed) +
             (c.urban_traffic ? "Urban" : "Uniform") +
             (c.pricing == PricingMode::Exact ? "Exact" : "Slot") +
             (c.prune ? "Pruned" : "Unpruned");
    });

TEST(Mlc, RoutesAreMutuallyNonDominated) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, static_unbounded());
  const MlcResult result = solver.search(0, 3, TimeOfDay::hms(10, 0));
  for (const auto& a : result.routes)
    for (const auto& b : result.routes)
      EXPECT_FALSE(dominates(a.cost, b.cost) && dominates(b.cost, a.cost));
}

TEST(Mlc, AllRoutesConnectOriginToDestination) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 1.5;
  const MultiLabelCorrecting solver(env.world, opt);
  const roadnet::NodeId o = city.node_at(2, 2);
  const roadnet::NodeId d = city.node_at(9, 10);
  const MlcResult result = solver.search(o, d, TimeOfDay::hms(10, 0));
  ASSERT_FALSE(result.routes.empty());
  for (const auto& route : result.routes) {
    EXPECT_TRUE(is_connected(route.path, city.graph()));
    EXPECT_EQ(path_origin(route.path, city.graph()), o);
    EXPECT_EQ(path_destination(route.path, city.graph()), d);
  }
}

TEST(Mlc, ContainsTheShortestTimeRoute) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 1.5;
  const MultiLabelCorrecting solver(env.world, opt);
  const roadnet::NodeId o = city.node_at(1, 1);
  const roadnet::NodeId d = city.node_at(8, 8);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult result = solver.search(o, d, dep);
  // The lexicographically first route minimizes travel time; it must
  // match the Dijkstra baseline the stats carry.
  ASSERT_FALSE(result.routes.empty());
  EXPECT_NEAR(result.routes.front().cost.travel_time.value(),
              result.stats.shortest_travel_time.value(), 0.5);
}

TEST(Mlc, TimeBudgetPrunesLongRoutes) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions tight;
  tight.max_time_factor = 1.1;
  MlcOptions loose;
  loose.max_time_factor = 2.0;
  const MultiLabelCorrecting tight_solver(env.world, tight);
  const MultiLabelCorrecting loose_solver(env.world, loose);
  const roadnet::NodeId o = city.node_at(2, 2);
  const roadnet::NodeId d = city.node_at(7, 7);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);
  const MlcResult t = tight_solver.search(o, d, dep);
  const MlcResult l = loose_solver.search(o, d, dep);
  EXPECT_LE(t.routes.size(), l.routes.size());
  const double bound =
      t.stats.shortest_travel_time.value() * tight.max_time_factor;
  for (const auto& route : t.routes)
    EXPECT_LE(route.cost.travel_time.value(), bound + 1e-6);
}

TEST(Mlc, UnreachableDestinationThrows) {
  roadnet::GraphBuilder b;
  b.add_node({45.50, -73.57});
  b.add_node({45.51, -73.57});
  b.add_node({45.52, -73.57});
  b.add_edge(0, 1);
  const roadnet::RoadGraph g = std::move(b).build();
  test::RoutingEnv env(g);
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  EXPECT_THROW((void)solver.search(0, 2, TimeOfDay::hms(10, 0)),
               RoutingError);
}

TEST(Mlc, UnknownNodeThrows) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  EXPECT_THROW((void)solver.search(0, 99, TimeOfDay::hms(10, 0)),
               GraphError);
}

TEST(Mlc, LabelBudgetEnforced) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_labels = 10;
  const MultiLabelCorrecting solver(env.world, opt);
  EXPECT_THROW((void)solver.search(city.node_at(0, 0), city.node_at(9, 9),
                                   TimeOfDay::hms(10, 0)),
               RoutingError);
}

TEST(Mlc, InvalidOptionsRejected) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  MlcOptions bad;
  bad.max_time_factor = -1.0;
  EXPECT_THROW(MultiLabelCorrecting(env.world, bad), InvalidArgument);
  bad.max_time_factor = 0.5;  // would exclude the shortest path
  EXPECT_THROW(MultiLabelCorrecting(env.world, bad), InvalidArgument);
}

TEST(Mlc, OriginEqualsDestinationYieldsEmptyRoute) {
  test::SquareGraph sq;
  test::RoutingEnv env(sq.graph);
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  const MlcResult result = solver.search(1, 1, TimeOfDay::hms(10, 0));
  ASSERT_EQ(result.routes.size(), 1u);
  EXPECT_TRUE(result.routes.front().path.empty());
  EXPECT_DOUBLE_EQ(result.routes.front().cost.travel_time.value(), 0.0);
}

TEST(Mlc, StatsArePopulated) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  const MlcResult result = solver.search(city.node_at(1, 1),
                                         city.node_at(6, 6),
                                         TimeOfDay::hms(10, 0));
  EXPECT_GT(result.stats.labels_created, result.routes.size());
  EXPECT_GT(result.stats.queue_pops, 0u);
  EXPECT_GE(result.stats.dominance_checks, result.stats.queue_pops);
  EXPECT_EQ(result.stats.pareto_size, result.routes.size());
  EXPECT_GT(result.stats.shortest_travel_time.value(), 0.0);
}

TEST(Mlc, MaxLabelsExhaustionThrowsRoutingErrorNamingTheBudget) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_labels = 32;
  const MultiLabelCorrecting solver(env.world, opt);
  try {
    (void)solver.search(city.node_at(0, 0), city.node_at(9, 9),
                        TimeOfDay::hms(10, 0));
    FAIL() << "expected RoutingError";
  } catch (const RoutingError& e) {
    EXPECT_NE(std::string(e.what()).find("label budget"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("32"), std::string::npos);
  }
}

TEST(Mlc, TimeIndependentPricesEveryEdgeAtTheDepartureInstant) {
  // With time_dependent = false, each returned route's cost must equal
  // the sum of its edge criteria all evaluated at the departure time —
  // exactly, since the search adds the same doubles.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.max_time_factor = 1.3;
  opt.time_dependent = false;
  const MultiLabelCorrecting solver(env.world, opt);
  const TimeOfDay dep = TimeOfDay::hms(9, 10);
  const MlcResult result = solver.search(city.node_at(1, 1),
                                         city.node_at(6, 7), dep);
  ASSERT_FALSE(result.routes.empty());
  for (const auto& route : result.routes) {
    Criteria static_cost;
    for (const roadnet::EdgeId e : route.path.edges)
      static_cost += detail::edge_criteria(env.map, env.lv, e, dep);
    EXPECT_EQ(route.cost, static_cost);
  }
}

TEST(Mlc, TimeIndependentSearchIgnoresMidRouteSlotBoundaries) {
  // A static search departing just before a 15-minute slot boundary and
  // one departing within the same slot but later must agree with the
  // static pricing of their own departure instant; the time-dependent
  // search from the same origin can differ because it re-prices edges
  // mid-route. This pins down the semantic difference of the flag.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions static_opt;
  static_opt.max_time_factor = 1.3;
  static_opt.time_dependent = false;
  MlcOptions dynamic_opt = static_opt;
  dynamic_opt.time_dependent = true;
  const MultiLabelCorrecting static_solver(env.world, static_opt);
  const MultiLabelCorrecting dynamic_solver(env.world, dynamic_opt);
  const roadnet::NodeId o = city.node_at(0, 0);
  const roadnet::NodeId d = city.node_at(9, 9);
  // 09:14 departure: a multi-minute trip crosses into the 09:15 slot.
  const TimeOfDay dep = TimeOfDay::hms(9, 14);
  const MlcResult st = static_solver.search(o, d, dep);
  const MlcResult dy = dynamic_solver.search(o, d, dep);
  ASSERT_FALSE(st.routes.empty());
  ASSERT_FALSE(dy.routes.empty());
  // Static costs re-derived at the departure instant match exactly...
  for (const auto& route : st.routes) {
    Criteria at_departure;
    for (const roadnet::EdgeId e : route.path.edges)
      at_departure += detail::edge_criteria(env.map, env.lv, e, dep);
    EXPECT_EQ(route.cost, at_departure);
  }
  // ...while the time-dependent search sees the slot change mid-route:
  // re-pricing its best route statically gives a different vector.
  bool any_differs = false;
  for (const auto& route : dy.routes) {
    Criteria at_departure;
    for (const roadnet::EdgeId e : route.path.edges)
      at_departure += detail::edge_criteria(env.map, env.lv, e, dep);
    if (!equivalent(route.cost, at_departure)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Mlc, SlotQuantizedParetoSetsAreBitIdenticalOnASlotConstantWorld) {
  // RoutingEnv is slot-constant: UniformTraffic, slot-indexed shading,
  // constant panel power. Every input to edge_criteria is therefore
  // identical at the exact entry clock and at the slot start, so the
  // SlotQuantized search must reproduce the Exact Pareto sets bit for
  // bit — costs, paths, and search-effort stats alike.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions exact_opt;
  exact_opt.max_time_factor = 1.5;
  MlcOptions slot_opt = exact_opt;
  slot_opt.pricing = PricingMode::SlotQuantized;
  const MultiLabelCorrecting exact(env.world, exact_opt);
  const MultiLabelCorrecting slot(env.world, slot_opt);
  ASSERT_EQ(exact.cache(), nullptr);
  ASSERT_NE(slot.cache(), nullptr);

  const std::vector<std::pair<roadnet::NodeId, roadnet::NodeId>> trips = {
      {city.node_at(0, 0), city.node_at(9, 9)},
      {city.node_at(1, 1), city.node_at(6, 7)},
      {city.node_at(9, 0), city.node_at(0, 9)},
  };
  for (const auto& [o, d] : trips)
    for (const TimeOfDay dep :
         {TimeOfDay::hms(8, 30), TimeOfDay::hms(9, 14),
          TimeOfDay::hms(12, 0), TimeOfDay::hms(17, 50)}) {
      const MlcResult e = exact.search(o, d, dep);
      const MlcResult s = slot.search(o, d, dep);
      ASSERT_EQ(e.routes.size(), s.routes.size());
      for (std::size_t r = 0; r < e.routes.size(); ++r) {
        EXPECT_EQ(e.routes[r].cost, s.routes[r].cost);
        EXPECT_EQ(e.routes[r].path.edges, s.routes[r].path.edges);
      }
      EXPECT_EQ(e.stats.labels_created, s.stats.labels_created);
      EXPECT_EQ(e.stats.labels_dominated, s.stats.labels_dominated);
      EXPECT_EQ(e.stats.queue_pops, s.stats.queue_pops);
    }
}

TEST(Mlc, SlotQuantizedRepeatQueriesReuseTheCache) {
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  MlcOptions opt;
  opt.pricing = PricingMode::SlotQuantized;
  const MultiLabelCorrecting solver(env.world, opt);
  const MlcResult first = solver.search(city.node_at(1, 1),
                                        city.node_at(6, 6),
                                        TimeOfDay::hms(10, 0));
  const std::size_t filled = solver.cache()->filled_slots();
  EXPECT_GT(filled, 0u);
  const MlcResult second = solver.search(city.node_at(1, 1),
                                         city.node_at(6, 6),
                                         TimeOfDay::hms(10, 0));
  // Same slots touched again: no new columns, identical results.
  EXPECT_EQ(solver.cache()->filled_slots(), filled);
  ASSERT_EQ(first.routes.size(), second.routes.size());
  for (std::size_t r = 0; r < first.routes.size(); ++r)
    EXPECT_EQ(first.routes[r].cost, second.routes[r].cost);
}

TEST(Mlc, TimeDependentCostsChangeWithDeparture) {
  // With hashed shading varying by slot, a trip at 9:00 and one at
  // 13:00 should see different shaded-time costs on some route.
  const roadnet::GridCity city{roadnet::GridCityOptions{}};
  test::RoutingEnv env(city.graph());
  const MultiLabelCorrecting solver(env.world, MlcOptions{});
  const roadnet::NodeId o = city.node_at(1, 1);
  const roadnet::NodeId d = city.node_at(5, 5);
  const auto morning = solver.search(o, d, TimeOfDay::hms(9, 0));
  const auto noon = solver.search(o, d, TimeOfDay::hms(13, 0));
  ASSERT_FALSE(morning.routes.empty());
  ASSERT_FALSE(noon.routes.empty());
  EXPECT_FALSE(equivalent(morning.routes.front().cost,
                          noon.routes.front().cost));
}

// A world over `g` whose every edge is half shaded at every slot: shaded
// time is a fixed share of travel time, so on the fixture's equal-speed
// roads all three criteria grow with length, and of two routes the
// shorter dominates.
WorldPtr half_shaded_world(const roadnet::RoadGraph& g) {
  WorldInit init = test::RoutingEnv::make_init(g);
  init.shading = std::make_shared<const shadow::ShadingProfile>(
      shadow::ShadingProfile::compute(
          *init.graph, [](roadnet::EdgeId, TimeOfDay) { return 0.5; },
          TimeOfDay::hms(8, 0), TimeOfDay::hms(18, 0)));
  return World::create(std::move(init));
}

TEST(Mlc, LabelDominatedOnlyByAnOpenLabelIsAbsent) {
  // O->B->D (300 m) is created at D while O->A->D (250 m), which
  // dominates it, is still queued and unexpanded: B pops at 200 m, before
  // the A-side label at D. The longer label must not survive.
  roadnet::GraphBuilder b;
  const auto o = b.add_node({45.5000, -73.5700});
  const auto a = b.add_node({45.5010, -73.5690});
  const auto bn = b.add_node({45.4990, -73.5690});
  const auto d = b.add_node({45.5000, -73.5680});
  const auto t = b.add_node({45.5000, -73.5670});
  const auto oa = b.add_edge(o, a, Meters{100.0});
  b.add_edge(o, bn, Meters{200.0});
  const auto ad = b.add_edge(a, d, Meters{150.0});
  b.add_edge(bn, d, Meters{100.0});
  const auto dt = b.add_edge(d, t, Meters{100.0});
  const roadnet::RoadGraph g = std::move(b).build();
  MlcOptions opt;
  opt.max_time_factor = 0.0;
  const MultiLabelCorrecting solver(half_shaded_world(g), opt);

  const MlcResult to_d = solver.search(o, d, TimeOfDay::hms(10, 0));
  ASSERT_EQ(to_d.routes.size(), 1u);
  EXPECT_EQ(to_d.routes[0].path.edges,
            (std::vector<roadnet::EdgeId>{oa, ad}));
  EXPECT_GE(to_d.stats.labels_dominated, 1u);

  const MlcResult to_t = solver.search(o, t, TimeOfDay::hms(10, 0));
  ASSERT_EQ(to_t.routes.size(), 1u);
  EXPECT_EQ(to_t.routes[0].path.edges,
            (std::vector<roadnet::EdgeId>{oa, ad, dt}));
  EXPECT_GE(to_t.stats.labels_dominated, 1u);
}

TEST(Mlc, EquivalentCostsKeepTheEarlierCreatedRoute) {
  // Two routes whose costs differ by far less than kCriteriaEpsilon; the
  // one through B is the (microscopically) cheaper, but A's labels are
  // created first (O's first out-edge), so mlc.h's tie rule keeps A.
  roadnet::GraphBuilder b;
  const auto o = b.add_node({45.5000, -73.5700});
  const auto a = b.add_node({45.5010, -73.5690});
  const auto bn = b.add_node({45.4990, -73.5690});
  const auto d = b.add_node({45.5000, -73.5680});
  const auto oa = b.add_edge(o, a, Meters{100.0});
  const auto ob = b.add_edge(o, bn, Meters{100.0});
  const auto ad = b.add_edge(a, d, Meters{100.0});
  const auto bd = b.add_edge(bn, d, Meters{100.0 - 1e-9});
  const roadnet::RoadGraph g = std::move(b).build();
  const WorldPtr world = half_shaded_world(g);
  MlcOptions opt;
  opt.max_time_factor = 0.0;
  const MultiLabelCorrecting solver(world, opt);
  const TimeOfDay dep = TimeOfDay::hms(10, 0);

  Criteria via_a;
  for (const roadnet::EdgeId e : {oa, ad})
    via_a += edge_criteria(world, e, dep.advanced_by(via_a.travel_time));
  Criteria via_b;
  for (const roadnet::EdgeId e : {ob, bd})
    via_b += edge_criteria(world, e, dep.advanced_by(via_b.travel_time));
  ASSERT_TRUE(equivalent(via_a, via_b));
  ASSERT_LT(via_b.travel_time.value(), via_a.travel_time.value());

  const MlcResult result = solver.search(o, d, dep);
  ASSERT_EQ(result.routes.size(), 1u);
  EXPECT_EQ(result.routes[0].path.edges,
            (std::vector<roadnet::EdgeId>{oa, ad}));
  EXPECT_EQ(result.routes[0].cost, via_a);
}

void expect_identical(const MlcResult& a, const MlcResult& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t r = 0; r < a.routes.size(); ++r) {
    EXPECT_EQ(a.routes[r].cost, b.routes[r].cost);
    EXPECT_EQ(a.routes[r].path.edges, b.routes[r].path.edges);
  }
  EXPECT_EQ(a.stats.labels_created, b.stats.labels_created);
  EXPECT_EQ(a.stats.labels_dominated, b.stats.labels_dominated);
  EXPECT_EQ(a.stats.dominance_checks, b.stats.dominance_checks);
  EXPECT_EQ(a.stats.queue_pops, b.stats.queue_pops);
  EXPECT_EQ(a.stats.labels_pruned_bound, b.stats.labels_pruned_bound);
}

TEST(Mlc, ReusedSearchBuffersGiveIdenticalResults) {
  // Searches on one thread share buffers. A query repeated after larger
  // queries on another world — exact, and one aborted by its label
  // budget — must match itself and a run on a fresh thread.
  roadnet::GridCityOptions small_opt;
  small_opt.rows = 6;
  small_opt.cols = 6;
  small_opt.seed = 3;
  const roadnet::GridCity small(small_opt);
  test::RoutingEnv small_env(small.graph());
  const MultiLabelCorrecting solver(small_env.world, MlcOptions{});
  const roadnet::NodeId o = small.node_at(0, 0);
  const roadnet::NodeId d = small.node_at(5, 5);
  const TimeOfDay dep = TimeOfDay::hms(9, 10);
  const MlcResult first = solver.search(o, d, dep);
  ASSERT_FALSE(first.routes.empty());

  const roadnet::GridCity large{roadnet::GridCityOptions{}};
  test::RoutingEnv large_env(large.graph());
  const roadnet::NodeId lo = large.node_at(0, 0);
  const roadnet::NodeId ld = large.node_at(11, 11);
  MlcOptions exact_opt;
  exact_opt.max_time_factor = 1.3;
  EXPECT_GT(MultiLabelCorrecting(large_env.world, exact_opt)
                .search(lo, ld, dep)
                .stats.labels_created,
            first.stats.labels_created);
  MlcOptions capped = exact_opt;
  capped.max_labels = 40;
  EXPECT_THROW((void)MultiLabelCorrecting(large_env.world, capped)
                   .search(lo, ld, dep),
               RoutingError);

  expect_identical(solver.search(o, d, dep), first);
  MlcResult fresh;
  std::thread([&] { fresh = solver.search(o, d, dep); }).join();
  expect_identical(fresh, first);
}

}  // namespace
}  // namespace sunchase::core
