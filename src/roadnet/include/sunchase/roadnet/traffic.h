// Traffic flow model. The paper reads current traffic speed from
// Google Maps and assumes constant speed per road segment (Sec. III-A);
// its simulations use an urban 14-17 km/h band. This module substitutes
// a deterministic per-edge, time-of-day speed model.
#pragma once

#include <cstdint>
#include <span>

#include "sunchase/common/time_of_day.h"
#include "sunchase/common/units.h"
#include "sunchase/roadnet/graph.h"

namespace sunchase::roadnet {

/// Interface: expected cruising speed on an edge at a time of day.
/// Implementations must return strictly positive speeds.
class TrafficModel {
 public:
  virtual ~TrafficModel() = default;
  [[nodiscard]] virtual MetersPerSecond speed(const RoadGraph& graph,
                                              EdgeId edge,
                                              TimeOfDay when) const = 0;

  /// Batched speed(): out[i] = speed(graph, edges[i], when) for every
  /// i, bit for bit — the exact search prices all of a node's out-edges
  /// at one clock, so a model can hoist its time-of-day work out of the
  /// loop. The default loops over speed(). Throws InvalidArgument when
  /// `out` is shorter than `edges`.
  virtual void speeds(const RoadGraph& graph, std::span<const EdgeId> edges,
                      TimeOfDay when, std::span<MetersPerSecond> out) const;

  /// Travel time on an edge = length / speed (paper: constant speed per
  /// segment, time driven by traffic flow and length).
  [[nodiscard]] Seconds travel_time(const RoadGraph& graph, EdgeId edge,
                                    TimeOfDay when) const;

  /// An upper bound on speed(graph, edge, t) over EVERY time of day —
  /// the admissibility contract behind min_travel_time and the MLC
  /// lower-bound pruning built on it: returning less than any
  /// instantaneous speed would make the search prune reachable routes.
  /// The default samples the 96 slot starts and takes the maximum,
  /// which is exact for slot-constant models; models whose speed varies
  /// within a slot must override with a true bound.
  [[nodiscard]] virtual MetersPerSecond max_speed(const RoadGraph& graph,
                                                  EdgeId edge) const;

  /// A lower bound on travel_time(graph, edge, t) over every time of
  /// day: length / max_speed. The static edge weight of the reverse
  /// Dijkstra that computes time-to-destination lower bounds.
  [[nodiscard]] Seconds min_travel_time(const RoadGraph& graph,
                                        EdgeId edge) const;
};

/// Same speed on every edge at every time. Useful for tests and for
/// isolating solar effects in ablations.
class UniformTraffic final : public TrafficModel {
 public:
  explicit UniformTraffic(MetersPerSecond speed);
  [[nodiscard]] MetersPerSecond speed(const RoadGraph&, EdgeId,
                                      TimeOfDay) const override;
  [[nodiscard]] MetersPerSecond max_speed(const RoadGraph&,
                                          EdgeId) const override;
  void speeds(const RoadGraph&, std::span<const EdgeId> edges, TimeOfDay,
              std::span<MetersPerSecond> out) const override;

  /// The single constant speed (snapshot serialization reads it back).
  [[nodiscard]] MetersPerSecond uniform_speed() const noexcept {
    return speed_;
  }

 private:
  MetersPerSecond speed_;
};

/// Urban traffic: each edge gets a stable free-flow speed drawn
/// deterministically from [min, max] (seed + edge id), then modulated by
/// a rush-hour profile (slower 7:30-9:30 and 16:00-18:30). The default
/// band reproduces the paper's simulated 14-17 km/h range across the
/// day: free flow near 16.2-17 km/h, rush hour pulling it toward
/// ~13.8 km/h. The per-street spread at any single instant is kept
/// narrow so that consumption differences between candidate routes are
/// driven by route length, as in the paper's tables.
class UrbanTraffic final : public TrafficModel {
 public:
  struct Options {
    MetersPerSecond min_speed = kmh(16.2);
    MetersPerSecond max_speed = kmh(17.0);
    double rush_hour_slowdown = 0.85;  ///< multiplier at rush-hour peak
    std::uint64_t seed = 42;
  };

  explicit UrbanTraffic(Options options);
  [[nodiscard]] MetersPerSecond speed(const RoadGraph& graph, EdgeId edge,
                                      TimeOfDay when) const override;
  /// The edge's free-flow speed: congestion_factor is <= 1 everywhere
  /// (continuous in time, so slot-start sampling would undershoot).
  [[nodiscard]] MetersPerSecond max_speed(const RoadGraph& graph,
                                          EdgeId edge) const override;
  /// One congestion_factor for the whole batch, then the same
  /// max_speed * factor product speed() evaluates per edge.
  void speeds(const RoadGraph& graph, std::span<const EdgeId> edges,
              TimeOfDay when, std::span<MetersPerSecond> out) const override;

  /// The time-of-day congestion multiplier in (0, 1], exposed for tests.
  [[nodiscard]] double congestion_factor(TimeOfDay when) const noexcept;

  /// The construction options (snapshot serialization reads them back;
  /// the model is a pure function of them, so persisting the options
  /// reproduces the model bit-exactly).
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace sunchase::roadnet
