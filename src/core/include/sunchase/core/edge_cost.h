// Bridges the solar input map and an EV consumption model into the
// criteria vector the router searches over.
#pragma once

#include <span>

#include "sunchase/core/criteria.h"
#include "sunchase/core/world_fwd.h"
#include "sunchase/ev/consumption.h"
#include "sunchase/solar/input_map.h"

namespace sunchase::core {

/// When an edge's criteria vector is priced relative to the label's
/// entry clock. The paper holds the panel power C and the shading
/// profile constant within each 15-minute slot (Sec. IV, Eq. 2-3), so
/// quantizing the pricing clock to the slot start loses nothing on a
/// slot-constant world — and lets every label entering an edge within
/// the same slot share one precomputed cost (core::SlotCostCache).
enum class PricingMode {
  /// Price at the label's exact entry clock (departure advanced by the
  /// accumulated travel time). The historical behavior.
  Exact,
  /// Price at TimeOfDay::slot_start(when.slot_index()) through the
  /// shared per-(edge, slot) cost cache. Bit-identical to Exact when
  /// every time-dependent input is slot-constant (uniform traffic,
  /// constant or per-slot panel power); bounded divergence under the
  /// continuous rush-hour traffic model (see EXPERIMENTS.md).
  SlotQuantized,
};

/// The clock an edge entered at `when` is priced at under `mode`.
[[nodiscard]] inline TimeOfDay pricing_time(TimeOfDay when,
                                            PricingMode mode) {
  return mode == PricingMode::SlotQuantized
             ? TimeOfDay::slot_start(when.slot_index())
             : when;
}

/// The CLI / query-log spelling of a mode: "exact" or "slot".
[[nodiscard]] constexpr const char* pricing_name(PricingMode mode) noexcept {
  return mode == PricingMode::SlotQuantized ? "slot" : "exact";
}

/// Criteria accrued by entering `edge` at `when` with the world's
/// `vehicle`. Throws InvalidArgument for a null world or an unknown
/// vehicle index.
[[nodiscard]] Criteria edge_criteria(const WorldPtr& world,
                                     roadnet::EdgeId edge, TimeOfDay when,
                                     std::size_t vehicle = 0);

namespace detail {

/// Implementation primitive over the snapshot's components — internal;
/// public callers go through the WorldPtr overload above so no
/// long-lived layer ever borrows raw world data. A one-edge
/// price_edges() that counts one "solar.evaluate_calls".
[[nodiscard]] Criteria edge_criteria(const solar::SolarInputMap& map,
                                     const ev::ConsumptionModel& vehicle,
                                     roadnet::EdgeId edge, TimeOfDay when);

/// The exact pricing primitive: out[i] is the criteria vector of
/// entering edges[i] at `when`, i.e. {travel time, shaded time,
/// consumption at the edge's speed}. One TrafficModel::speeds call
/// fills `speeds` (a buffer the caller owns, left holding each edge's
/// speed), then each edge goes through SolarInputMap::evaluate_at_speed
/// — the arithmetic SolarInputMap::evaluate is built on — so every
/// result is bit-identical to pricing the edge alone with evaluate(),
/// the traffic speed and the vehicle's consumption. Computes no
/// energy_in and leaves "solar.evaluate_calls" to the caller. Throws
/// InvalidArgument when `speeds` or `out` is shorter than `edges`.
void price_edges(const solar::SolarInputMap& map,
                 const ev::ConsumptionModel& vehicle,
                 std::span<const roadnet::EdgeId> edges, TimeOfDay when,
                 std::span<MetersPerSecond> speeds, std::span<Criteria> out);

}  // namespace detail

}  // namespace sunchase::core
