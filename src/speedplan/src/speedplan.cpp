#include "sunchase/speedplan/speedplan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sunchase/common/error.h"

namespace sunchase::speedplan {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

SpeedPlanResult plan_speeds(const std::vector<SegmentSpec>& segments,
                            const ev::ConsumptionModel& vehicle,
                            WattHours initial_battery, WattHours capacity,
                            const SpeedPlanOptions& options) {
  if (segments.empty())
    throw InvalidArgument("plan_speeds: no segments");
  if (capacity.value() <= 0.0)
    throw InvalidArgument("plan_speeds: non-positive capacity");
  if (initial_battery.value() < 0.0 || initial_battery > capacity)
    throw InvalidArgument("plan_speeds: initial battery outside [0,capacity]");
  if (options.min_speed.value() <= 0.0 ||
      options.max_speed <= options.min_speed)
    throw InvalidArgument("plan_speeds: degenerate speed range");
  if (options.speed_steps < 2 || options.battery_steps < 2)
    throw InvalidArgument("plan_speeds: need >= 2 speed and battery steps");
  for (const SegmentSpec& seg : segments) {
    if (seg.length.value() <= 0.0)
      throw InvalidArgument("plan_speeds: non-positive segment length");
    if (seg.solar_fraction < 0.0 || seg.solar_fraction > 1.0)
      throw InvalidArgument("plan_speeds: solar fraction outside [0,1]");
  }

  const int levels = options.battery_steps + 1;
  const double unit = capacity.value() / options.battery_steps;
  auto level_of = [&](double energy_wh) {
    return std::clamp(static_cast<int>(std::floor(energy_wh / unit)), 0,
                      levels - 1);
  };

  // Discrete speed menu (shared by all segments).
  std::vector<double> speeds(static_cast<std::size_t>(options.speed_steps));
  for (int j = 0; j < options.speed_steps; ++j)
    speeds[static_cast<std::size_t>(j)] =
        options.min_speed.value() +
        (options.max_speed.value() - options.min_speed.value()) * j /
            (options.speed_steps - 1);

  // dp[b] = minimum elapsed time reaching the end of the current
  // segment prefix with battery level b; choice tracking for the
  // reconstruction.
  struct Choice {
    int prev_level = -1;
    int speed_index = -1;
  };
  std::vector<double> dp(static_cast<std::size_t>(levels), kInf);
  dp[static_cast<std::size_t>(level_of(initial_battery.value()))] = 0.0;
  std::vector<std::vector<Choice>> choices(
      segments.size(), std::vector<Choice>(static_cast<std::size_t>(levels)));

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentSpec& seg = segments[i];
    std::vector<double> next(static_cast<std::size_t>(levels), kInf);
    for (int b = 0; b < levels; ++b) {
      const double t0 = dp[static_cast<std::size_t>(b)];
      if (t0 == kInf) continue;
      const double battery_wh = b * unit;
      for (int j = 0; j < options.speed_steps; ++j) {
        const double v = speeds[static_cast<std::size_t>(j)];
        const double dt = seg.length.value() / v;
        const double consumed =
            vehicle.consumption(seg.length, MetersPerSecond{v}).value();
        const double harvested =
            seg.panel_power.value() * seg.solar_fraction * dt / 3600.0;
        const double after =
            std::min(battery_wh + harvested - consumed, capacity.value());
        if (after < 0.0) continue;  // battery would die mid-trip
        const int nb = level_of(after);
        const double nt = t0 + dt;
        if (nt < next[static_cast<std::size_t>(nb)]) {
          next[static_cast<std::size_t>(nb)] = nt;
          choices[i][static_cast<std::size_t>(nb)] = Choice{b, j};
        }
      }
    }
    dp = std::move(next);
  }

  SpeedPlanResult result;
  int best_level = -1;
  double best_time = kInf;
  for (int b = 0; b < levels; ++b) {
    if (dp[static_cast<std::size_t>(b)] < best_time) {
      best_time = dp[static_cast<std::size_t>(b)];
      best_level = b;
    }
  }
  if (best_level < 0) return result;  // infeasible at every speed

  // Walk the choices backwards to recover per-segment speeds.
  result.feasible = true;
  result.total_time = Seconds{best_time};
  result.segments.resize(segments.size());
  int level = best_level;
  for (std::size_t i = segments.size(); i-- > 0;) {
    const Choice c = choices[i][static_cast<std::size_t>(level)];
    const SegmentSpec& seg = segments[i];
    const double v = speeds[static_cast<std::size_t>(c.speed_index)];
    const double dt = seg.length.value() / v;
    SegmentPlan& plan = result.segments[i];
    plan.speed = MetersPerSecond{v};
    plan.time = Seconds{dt};
    plan.harvested =
        WattHours{seg.panel_power.value() * seg.solar_fraction * dt / 3600.0};
    plan.consumed = vehicle.consumption(seg.length, plan.speed);
    level = c.prev_level;
  }
  // The charge the plan really arrives with. The DP rounds the level
  // down after every segment, so its final level can sit up to one
  // level per segment below it.
  double battery = initial_battery.value();
  for (const SegmentPlan& plan : result.segments)
    battery = std::min(
        battery + plan.harvested.value() - plan.consumed.value(),
        capacity.value());
  result.final_battery = WattHours{battery};
  return result;
}

std::vector<SegmentSpec> segments_from_route(const solar::SolarInputMap& map,
                                             const roadnet::Path& path,
                                             TimeOfDay departure) {
  std::vector<SegmentSpec> segments;
  segments.reserve(path.size() * 2);
  TimeOfDay clock = departure;
  const auto& graph = map.graph();
  for (const roadnet::EdgeId e : path.edges) {
    const solar::EdgeSolar es = map.evaluate(e, clock);
    const Watts c = map.panel_power(clock);
    const Meters length = graph.edge(e).length;
    const double frac =
        es.travel_time.value() > 0.0
            ? es.solar_time.value() / es.travel_time.value()
            : 0.0;
    const Meters solar_len = length * frac;
    const Meters shaded_len = length - solar_len;
    // One illuminated stretch and one shaded stretch per edge (the
    // paper's road model: each edge consists of illuminated segments
    // and shaded segments; the split within the edge does not matter
    // for either harvesting or consumption).
    if (solar_len.value() > 0.5)
      segments.push_back(SegmentSpec{solar_len, 1.0, c});
    if (shaded_len.value() > 0.5)
      segments.push_back(SegmentSpec{shaded_len, 0.0, c});
    clock = clock.advanced_by(es.travel_time);
  }
  return segments;
}

}  // namespace sunchase::speedplan
