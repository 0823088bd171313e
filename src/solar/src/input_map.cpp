#include "sunchase/solar/input_map.h"

#include "sunchase/common/error.h"
#include "sunchase/common/logging.h"

namespace sunchase::solar {

SolarInputMap::SolarInputMap(const roadnet::RoadGraph& graph,
                             const shadow::ShadingProfile& shading,
                             const roadnet::TrafficModel& traffic,
                             PanelPowerFn panel_power)
    : graph_(graph),
      shading_(shading),
      traffic_(traffic),
      panel_power_(std::move(panel_power)),
      evaluate_calls_(
          obs::Registry::global().counter("solar.evaluate_calls")) {
  if (!panel_power_)
    throw InvalidArgument("SolarInputMap: null panel power function");
  if (shading.edge_count() != graph.edge_count())
    throw InvalidArgument(
        "SolarInputMap: shading profile does not match the graph");
}

EdgeSolar SolarInputMap::evaluate(roadnet::EdgeId edge, TimeOfDay when) const {
  evaluate_calls_.add();
  // Narrate 15-min interval refreshes only when someone is listening:
  // the exchange keeps the message once-per-slot under concurrency.
  if (log_enabled(LogLevel::Debug)) {
    const int slot = when.slot_index();
    if (last_logged_slot_.exchange(slot, std::memory_order_relaxed) != slot)
      SUNCHASE_LOG(Debug) << "input map: entering 15-min slot " << slot
                          << " (" << TimeOfDay::slot_start(slot).to_string()
                          << ", panel C = " << panel_power_(when).value()
                          << " W)";
  }
  EdgeSolar out =
      evaluate_at_speed(edge, when, traffic_.speed(graph_, edge, when));
  out.energy_in = energy(panel_power_(when), out.solar_time);
  return out;
}

Watts SolarInputMap::panel_power(TimeOfDay when) const {
  return panel_power_(when);
}

}  // namespace sunchase::solar
