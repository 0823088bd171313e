// Speed planning for solar-powered EVs — the companion problem the
// paper defers to Lv et al. [1] and explicitly proposes integrating
// with SunChase ("In case where it is required, two works can be
// integrated to achieve the goal", Sec. I).
//
// Given a fixed route split into illuminated and shaded stretches,
// choose a cruising speed per stretch so that the vehicle arrives as
// early as possible while the battery never runs dry: slowing down on
// illuminated stretches buys harvest time (E = C * s/v grows as v
// drops) and cuts the quadratic consumption; slowing on shaded
// stretches only cuts consumption. The solver is a dynamic program
// over (segment, discretized battery level), matching Lv's DP
// formulation.
#pragma once

#include <vector>

#include "sunchase/common/units.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/roadnet/path.h"
#include "sunchase/solar/input_map.h"

namespace sunchase::speedplan {

/// One stretch of road with homogeneous solar exposure.
struct SegmentSpec {
  Meters length{0.0};
  /// Fraction of the stretch that is illuminated in [0, 1]; harvesting
  /// power while on it is `panel_power * solar_fraction`.
  double solar_fraction = 0.0;
  Watts panel_power{0.0};
};

struct SpeedPlanOptions {
  MetersPerSecond min_speed = kmh(8.0);
  MetersPerSecond max_speed = kmh(40.0);
  int speed_steps = 33;     ///< discrete speed choices per segment
  int battery_steps = 400;  ///< battery-level discretization
};

/// Chosen speed and energy flow on one segment.
struct SegmentPlan {
  MetersPerSecond speed{0.0};
  Seconds time{0.0};
  WattHours harvested{0.0};
  WattHours consumed{0.0};
};

struct SpeedPlanResult {
  bool feasible = false;       ///< false: battery dies at every speed choice
  std::vector<SegmentPlan> segments;
  Seconds total_time{0.0};
  WattHours final_battery{0.0};  ///< charge at arrival driving the plan
};

/// Minimum-time speed assignment with the battery constrained to stay
/// non-negative after every segment (and capped at `capacity`).
/// Throws InvalidArgument for empty segments, non-positive battery
/// capacity, or a degenerate speed range.
[[nodiscard]] SpeedPlanResult plan_speeds(
    const std::vector<SegmentSpec>& segments,
    const ev::ConsumptionModel& vehicle, WattHours initial_battery,
    WattHours capacity, const SpeedPlanOptions& options = SpeedPlanOptions{});

/// Splits a routed path into SegmentSpecs using the solar input map at
/// the departure time: each edge becomes an illuminated stretch and a
/// shaded stretch (when present), with the panel power of the edge's
/// entry slot. The clock advances with the map's predicted travel
/// times, as in route evaluation.
[[nodiscard]] std::vector<SegmentSpec> segments_from_route(
    const solar::SolarInputMap& map, const roadnet::Path& path,
    TimeOfDay departure);

}  // namespace sunchase::speedplan
