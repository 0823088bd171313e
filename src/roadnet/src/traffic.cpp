#include "sunchase/roadnet/traffic.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "sunchase/common/error.h"

namespace sunchase::roadnet {

namespace {

void check_batch(std::span<const EdgeId> edges,
                 std::span<MetersPerSecond> out) {
  if (out.size() < edges.size())
    throw InvalidArgument("TrafficModel::speeds: output holds " +
                          std::to_string(out.size()) + " speeds for " +
                          std::to_string(edges.size()) + " edges");
}

}  // namespace

void TrafficModel::speeds(const RoadGraph& graph,
                          std::span<const EdgeId> edges, TimeOfDay when,
                          std::span<MetersPerSecond> out) const {
  check_batch(edges, out);
  for (std::size_t i = 0; i < edges.size(); ++i)
    out[i] = speed(graph, edges[i], when);
}

Seconds TrafficModel::travel_time(const RoadGraph& graph, EdgeId edge,
                                  TimeOfDay when) const {
  return graph.edge(edge).length / speed(graph, edge, when);
}

MetersPerSecond TrafficModel::max_speed(const RoadGraph& graph,
                                        EdgeId edge) const {
  double best = 0.0;
  for (int slot = 0; slot < TimeOfDay::kSlotsPerDay; ++slot) {
    const auto when = TimeOfDay::slot_start(slot);
    best = std::max(best, speed(graph, edge, when).value());
  }
  return MetersPerSecond{best};
}

Seconds TrafficModel::min_travel_time(const RoadGraph& graph,
                                      EdgeId edge) const {
  return graph.edge(edge).length / max_speed(graph, edge);
}

UniformTraffic::UniformTraffic(MetersPerSecond speed) : speed_(speed) {
  if (speed.value() <= 0.0)
    throw InvalidArgument("UniformTraffic: non-positive speed");
}

MetersPerSecond UniformTraffic::speed(const RoadGraph&, EdgeId,
                                      TimeOfDay) const {
  return speed_;
}

MetersPerSecond UniformTraffic::max_speed(const RoadGraph&, EdgeId) const {
  return speed_;
}

void UniformTraffic::speeds(const RoadGraph&, std::span<const EdgeId> edges,
                            TimeOfDay, std::span<MetersPerSecond> out) const {
  check_batch(edges, out);
  std::fill_n(out.begin(), edges.size(), speed_);
}

UrbanTraffic::UrbanTraffic(Options options) : options_(options) {
  if (options.min_speed.value() <= 0.0 ||
      options.max_speed < options.min_speed)
    throw InvalidArgument("UrbanTraffic: bad speed band");
  if (options.rush_hour_slowdown <= 0.0 || options.rush_hour_slowdown > 1.0)
    throw InvalidArgument("UrbanTraffic: slowdown must be in (0,1]");
}

double UrbanTraffic::congestion_factor(TimeOfDay when) const noexcept {
  // Two smooth rush-hour dips (morning 8:30, evening 17:15), each ~1h
  // wide, floor at rush_hour_slowdown.
  const double h = when.hours_since_midnight();
  auto dip = [&](double center, double width) {
    const double z = (h - center) / width;
    return (1.0 - options_.rush_hour_slowdown) * std::exp(-z * z);
  };
  const double factor = 1.0 - dip(8.5, 1.0) - dip(17.25, 1.25);
  return factor < options_.rush_hour_slowdown ? options_.rush_hour_slowdown
                                              : factor;
}

MetersPerSecond UrbanTraffic::max_speed(const RoadGraph& graph,
                                        EdgeId edge) const {
  (void)graph.edge(edge);  // range-check the id
  // Stable per-edge hash -> [0,1); mix with the seed (SplitMix64 finalizer).
  std::uint64_t z = options_.seed + 0x9e3779b97f4a7c15ULL * (edge + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double u =
      static_cast<double>(z >> 11) * 0x1.0p-53;  // uniform in [0,1)
  const double base = options_.min_speed.value() +
                      u * (options_.max_speed.value() -
                           options_.min_speed.value());
  return MetersPerSecond{base};
}

MetersPerSecond UrbanTraffic::speed(const RoadGraph& graph, EdgeId edge,
                                    TimeOfDay when) const {
  return MetersPerSecond{max_speed(graph, edge).value() *
                         congestion_factor(when)};
}

void UrbanTraffic::speeds(const RoadGraph& graph,
                          std::span<const EdgeId> edges, TimeOfDay when,
                          std::span<MetersPerSecond> out) const {
  check_batch(edges, out);
  const double factor = congestion_factor(when);
  for (std::size_t i = 0; i < edges.size(); ++i)
    out[i] = MetersPerSecond{max_speed(graph, edges[i]).value() * factor};
}

}  // namespace sunchase::roadnet
