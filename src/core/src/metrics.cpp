#include "sunchase/core/metrics.h"

#include <string>

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"

namespace sunchase::core {

namespace detail {

Criteria edge_criteria(const solar::SolarInputMap& map,
                       const ev::ConsumptionModel& vehicle,
                       roadnet::EdgeId edge, TimeOfDay when) {
  MetersPerSecond speed;
  Criteria out;
  price_edges(map, vehicle, std::span(&edge, 1), when, std::span(&speed, 1),
              std::span(&out, 1));
  map.count_evaluations(1);
  return out;
}

void price_edges(const solar::SolarInputMap& map,
                 const ev::ConsumptionModel& vehicle,
                 std::span<const roadnet::EdgeId> edges, TimeOfDay when,
                 std::span<MetersPerSecond> speeds, std::span<Criteria> out) {
  if (out.size() < edges.size())
    throw InvalidArgument("price_edges: output holds " +
                          std::to_string(out.size()) + " prices for " +
                          std::to_string(edges.size()) + " edges");
  const auto& graph = map.graph();
  map.traffic().speeds(graph, edges, when, speeds);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const solar::EdgeSolar es = map.evaluate_at_speed(edges[i], when,
                                                      speeds[i]);
    out[i] = Criteria{es.travel_time, es.shaded_time,
                      vehicle.consumption(graph.edge(edges[i]).length,
                                          speeds[i])};
  }
}

RouteMetrics evaluate_route(const solar::SolarInputMap& map,
                            const ev::ConsumptionModel& vehicle,
                            const roadnet::Path& path, TimeOfDay departure) {
  RouteMetrics m;
  TimeOfDay clock = departure;
  const auto& graph = map.graph();
  for (const roadnet::EdgeId e : path.edges) {
    const solar::EdgeSolar es = map.evaluate(e, clock);
    m.total_length += graph.edge(e).length;
    m.travel_time += es.travel_time;
    m.solar_time += es.solar_time;
    m.shaded_time += es.shaded_time;
    m.energy_in += es.energy_in;
    m.energy_out += vehicle.consumption(graph.edge(e).length, es.speed);
    clock = clock.advanced_by(es.travel_time);
  }
  return m;
}

}  // namespace detail

Criteria edge_criteria(const WorldPtr& world, roadnet::EdgeId edge,
                       TimeOfDay when, std::size_t vehicle) {
  if (!world) throw InvalidArgument("edge_criteria: null world");
  return detail::edge_criteria(world->solar_map(), world->vehicle(vehicle),
                               edge, when);
}

RouteMetrics evaluate_route(const WorldPtr& world, const roadnet::Path& path,
                            TimeOfDay departure, std::size_t vehicle) {
  if (!world) throw InvalidArgument("evaluate_route: null world");
  return detail::evaluate_route(world->solar_map(), world->vehicle(vehicle),
                                path, departure);
}

WattHours energy_extra(const RouteMetrics& candidate,
                       const RouteMetrics& baseline) noexcept {
  // Eq. 5: (EI_i - EI_1) - (EC_i - EC_1) > 0.
  return (candidate.energy_in - baseline.energy_in) -
         (candidate.energy_out - baseline.energy_out);
}

}  // namespace sunchase::core
