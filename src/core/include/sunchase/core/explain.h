// Route explanation: a per-edge ledger that ties a planned route back
// to the paper's per-edge quantities — segment length (Eq. 7 Haversine
// edges), shade ratio at the active 15-minute solar-map slot, solar
// input (Eq. 2), EV consumption (Eq. 6) — with running cumulative
// totals. The ledger replays exactly the clock convention of the
// multi-label correcting search (edge priced at departure advanced by
// the cumulative travel time), so its sums reproduce the route's
// criteria vector: the conservation invariant that proves the energy
// accounting has not drifted.
#pragma once

#include <string>
#include <vector>

#include "sunchase/core/metrics.h"
#include "sunchase/core/mlc.h"

namespace sunchase::core {

/// One edge of the ledger: where, when, how sunny, and what it cost.
struct ExplainStep {
  roadnet::EdgeId edge = roadnet::kInvalidEdge;
  roadnet::NodeId from = roadnet::kInvalidNode;
  roadnet::NodeId to = roadnet::kInvalidNode;
  TimeOfDay entry;            ///< clock time entering the edge
  int slot = 0;               ///< active 15-min solar-map slot
  Meters length{0.0};
  MetersPerSecond speed{0.0};
  double shade_ratio = 0.0;   ///< shaded fraction in [0, 1]
  Seconds travel_time{0.0};
  Seconds solar_time{0.0};    ///< Eq. 3
  Seconds shaded_time{0.0};
  WattHours energy_in{0.0};   ///< Eq. 2: C * t_solar
  WattHours energy_out{0.0};  ///< Eq. 6 consumption
  Criteria cumulative;        ///< running criteria after this edge
  WattHours cumulative_energy_in{0.0};
};

/// The full per-edge story of one route.
struct RouteLedger {
  TimeOfDay departure;
  std::vector<ExplainStep> steps;
  RouteMetrics totals;  ///< ledger sums (same accounting as the steps)

  /// Largest absolute difference between the ledger sums and a route's
  /// criteria vector (travel time, shaded time, energy out).
  [[nodiscard]] double max_deviation(const Criteria& cost) const noexcept;

  /// The conservation invariant: the per-edge sums reproduce the
  /// search's criteria vector within `tolerance`.
  [[nodiscard]] bool conserves(const Criteria& cost,
                               double tolerance = 1e-6) const noexcept {
    return max_deviation(cost) <= tolerance;
  }

  /// Pretty-printed JSON document (departure, steps, totals).
  [[nodiscard]] std::string to_json() const;
  /// One header line plus one row per step.
  [[nodiscard]] std::string to_csv() const;
};

/// Builds ledgers for routes planned against one world snapshot,
/// pinned at construction. Throws InvalidArgument for a null world or
/// an unknown vehicle index.
class RouteExplainer {
 public:
  explicit RouteExplainer(WorldPtr world, std::size_t vehicle = 0);

  /// Walks `path` from `departure` and prices every edge exactly as the
  /// search did: entry time is the departure advanced by the cumulative
  /// travel time, then quantized per `pricing` — pass the mode the
  /// route was planned with so the conservation invariant holds
  /// bit-exactly. The ledger's `entry` column always records the real
  /// entry clock; only the price is quantized. Throws GraphError for
  /// unknown edges; an empty path yields an empty ledger.
  [[nodiscard]] RouteLedger explain(
      const roadnet::Path& path, TimeOfDay departure,
      PricingMode pricing = PricingMode::Exact) const;

  /// Convenience: explain a Pareto route of an MlcResult.
  [[nodiscard]] RouteLedger explain(
      const ParetoRoute& route, TimeOfDay departure,
      PricingMode pricing = PricingMode::Exact) const {
    return explain(route.path, departure, pricing);
  }

  /// The snapshot every ledger prices against.
  [[nodiscard]] const WorldPtr& world() const noexcept { return world_; }

 private:
  WorldPtr world_;
  std::size_t vehicle_;
};

}  // namespace sunchase::core
