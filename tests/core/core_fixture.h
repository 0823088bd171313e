// Shared fixture for the core routing tests: a small graph with a
// deterministic synthetic shading profile bundled into one immutable
// world snapshot, plus a brute-force Pareto enumerator to validate the
// multi-label correcting search against.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sunchase/core/edge_cost.h"
#include "sunchase/core/metrics.h"
#include "sunchase/core/mlc.h"
#include "sunchase/core/world.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/roadnet/citygen.h"
#include "sunchase/roadnet/traffic.h"
#include "sunchase/solar/input_map.h"
#include "test_helpers.h"

namespace sunchase::test {

/// Deterministic per-edge shading: edge e is shaded by a fraction that
/// depends on (e, slot) through a hash — stable, varied, in [0, 0.9].
inline shadow::ShadedFractionFn hashed_shading() {
  return [](roadnet::EdgeId e, TimeOfDay when) {
    const auto h = static_cast<std::uint64_t>(e) * 2654435761u +
                   static_cast<std::uint64_t>(when.slot_index()) * 97u;
    return static_cast<double>(h % 900) / 1000.0;
  };
}

/// hashed_shading without the slot: each edge keeps one shaded fraction
/// all day. With RoutingEnv's uniform traffic and constant panel power
/// no edge price then depends on the clock at all, so the search's
/// entry-clock pricing equals pricing every edge at the departure
/// instant, and brute_force_pareto below is its exact reference.
inline shadow::ShadedFractionFn clock_constant_shading() {
  return [](roadnet::EdgeId e, TimeOfDay) {
    const auto h = static_cast<std::uint64_t>(e) * 2654435761u;
    return static_cast<double>(h % 900) / 1000.0;
  };
}

/// A ready-to-route environment around any graph: one World snapshot
/// carrying the graph (copied), uniform traffic, a shading profile
/// (hashed_shading unless given), constant 200 W panel power and two
/// vehicles — the LV prototype at index kLv and the Tesla Model S at
/// index kTesla. The reference members are views into the snapshot, for
/// tests that poke at individual components.
struct RoutingEnv {
  static constexpr std::size_t kLv = 0;
  static constexpr std::size_t kTesla = 1;

  explicit RoutingEnv(const roadnet::RoadGraph& g,
                      MetersPerSecond uniform_speed = kmh(15.0),
                      shadow::ShadedFractionFn shading = hashed_shading())
      : world(make_world(g, uniform_speed, std::move(shading))),
        graph(world->graph()),
        traffic(world->traffic()),
        profile(world->shading()),
        map(world->solar_map()),
        lv(world->vehicle(kLv)),
        tesla(world->vehicle(kTesla)) {}

  [[nodiscard]] static core::WorldPtr make_world(
      const roadnet::RoadGraph& g, MetersPerSecond uniform_speed = kmh(15.0),
      shadow::ShadedFractionFn shading = hashed_shading()) {
    return core::World::create(
        make_init(g, uniform_speed, std::move(shading)));
  }

  /// The snapshot recipe alone, for tests that publish through a
  /// WorldStore or derive variants before creating.
  [[nodiscard]] static core::WorldInit make_init(
      const roadnet::RoadGraph& g, MetersPerSecond uniform_speed = kmh(15.0),
      shadow::ShadedFractionFn shading = hashed_shading()) {
    auto graph = std::make_shared<const roadnet::RoadGraph>(g);
    core::WorldInit init;
    init.graph = graph;
    init.traffic =
        std::make_shared<const roadnet::UniformTraffic>(uniform_speed);
    init.shading = std::make_shared<const shadow::ShadingProfile>(
        shadow::ShadingProfile::compute(*graph, shading,
                                        TimeOfDay::hms(8, 0),
                                        TimeOfDay::hms(18, 0)));
    init.panel_power = solar::constant_panel_power(Watts{200.0});
    init.vehicles.push_back(
        std::shared_ptr<const ev::ConsumptionModel>(ev::make_lv_prototype()));
    init.vehicles.push_back(std::shared_ptr<const ev::ConsumptionModel>(
        ev::make_tesla_model_s()));
    return init;
  }

  core::WorldPtr world;
  const roadnet::RoadGraph& graph;
  const roadnet::TrafficModel& traffic;
  const shadow::ShadingProfile& profile;
  const solar::SolarInputMap& map;
  const ev::ConsumptionModel& lv;
  const ev::ConsumptionModel& tesla;
};

/// Prices an edge given the route's cost accumulated up to its entry.
using EdgePricer =
    std::function<core::Criteria(roadnet::EdgeId, const core::Criteria&)>;

/// Per node, the cost of every simple path from the origin that reaches
/// it without passing the destination.
using PrefixCosts = std::vector<std::vector<core::Criteria>>;

/// Enumerates every simple path origin->destination (DFS), prices it
/// edge by edge with `price`, drops routes slower than `max_travel_time`
/// (0 = no limit), then filters to the Pareto frontier. When `prefixes`
/// is given it receives the cost of every path prefix the DFS priced.
inline std::vector<core::ParetoRoute> brute_force_pareto(
    const roadnet::RoadGraph& graph, roadnet::NodeId origin,
    roadnet::NodeId destination, const EdgePricer& price,
    double max_travel_time = 0.0, PrefixCosts* prefixes = nullptr) {
  if (prefixes != nullptr) prefixes->assign(graph.node_count(), {});
  std::vector<core::ParetoRoute> all;
  std::vector<roadnet::EdgeId> stack;
  std::vector<bool> visited(graph.node_count(), false);

  std::function<void(roadnet::NodeId, core::Criteria)> dfs =
      [&](roadnet::NodeId u, core::Criteria cost) {
        if (prefixes != nullptr) (*prefixes)[u].push_back(cost);
        if (u == destination) {
          if (max_travel_time <= 0.0 ||
              cost.travel_time.value() <= max_travel_time)
            all.push_back(core::ParetoRoute{roadnet::Path{stack}, cost});
          return;
        }
        visited[u] = true;
        for (const roadnet::EdgeId e : graph.out_edges(u)) {
          const roadnet::NodeId v = graph.edge(e).to;
          if (visited[v]) continue;
          stack.push_back(e);
          dfs(v, cost + price(e, cost));
          stack.pop_back();
        }
        visited[u] = false;
      };
  dfs(origin, core::Criteria{});

  std::vector<core::ParetoRoute> frontier;
  for (const auto& candidate : all) {
    bool dominated = false;
    for (const auto& other : all) {
      if (core::dominates(other.cost, candidate.cost)) {
        dominated = true;
        break;
      }
    }
    if (dominated) continue;
    // Drop duplicates with equivalent cost (MLC also keeps one each).
    const bool duplicate = std::any_of(
        frontier.begin(), frontier.end(), [&](const core::ParetoRoute& kept) {
          return core::equivalent(kept.cost, candidate.cost);
        });
    if (!duplicate) frontier.push_back(candidate);
  }
  return frontier;
}

/// Every edge priced with its criteria at `departure`: the search's
/// ground truth on a clock-constant world (clock_constant_shading).
inline std::vector<core::ParetoRoute> brute_force_pareto(
    const solar::SolarInputMap& map, const ev::ConsumptionModel& vehicle,
    roadnet::NodeId origin, roadnet::NodeId destination,
    TimeOfDay departure) {
  return brute_force_pareto(
      map.graph(), origin, destination,
      [&](roadnet::EdgeId e, const core::Criteria&) {
        return core::detail::edge_criteria(map, vehicle, e, departure);
      });
}

/// Ground truth for the time-dependent MLC: each edge priced at the
/// clock the route enters it (departure + travel time so far), rounded
/// down to the 15-minute slot start under SlotQuantized pricing.
inline std::vector<core::ParetoRoute> brute_force_pareto_time_dependent(
    const solar::SolarInputMap& map, const ev::ConsumptionModel& vehicle,
    roadnet::NodeId origin, roadnet::NodeId destination,
    TimeOfDay departure, core::PricingMode pricing,
    double max_travel_time, PrefixCosts* prefixes = nullptr) {
  return brute_force_pareto(
      map.graph(), origin, destination,
      [&](roadnet::EdgeId e, const core::Criteria& so_far) {
        const TimeOfDay entry = core::pricing_time(
            departure.advanced_by(so_far.travel_time), pricing);
        return core::detail::edge_criteria(map, vehicle, e, entry);
      },
      max_travel_time, prefixes);
}

}  // namespace sunchase::test
