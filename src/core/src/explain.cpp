#include "sunchase/core/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "sunchase/common/error.h"
#include "sunchase/core/world.h"

namespace sunchase::core {

namespace {

std::string format_double(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

double RouteLedger::max_deviation(const Criteria& cost) const noexcept {
  const Criteria sum = steps.empty() ? Criteria{} : steps.back().cumulative;
  return std::max({std::fabs(sum.travel_time.value() -
                             cost.travel_time.value()),
                   std::fabs(sum.shaded_time.value() -
                             cost.shaded_time.value()),
                   std::fabs(sum.energy_out.value() -
                             cost.energy_out.value())});
}

std::string RouteLedger::to_json() const {
  std::ostringstream out;
  out << "{\n  \"departure\": \"" << departure.to_string() << "\",\n";
  out << "  \"steps\": [";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const ExplainStep& s = steps[i];
    out << (i ? ",\n" : "\n");
    out << "    {\"seq\": " << i << ", \"edge\": " << s.edge
        << ", \"from\": " << s.from << ", \"to\": " << s.to
        << ", \"entry\": \"" << s.entry.to_string() << "\", \"slot\": "
        << s.slot << ",\n     \"length_m\": "
        << format_double(s.length.value()) << ", \"speed_kmh\": "
        << format_double(to_kmh(s.speed)) << ", \"shade_ratio\": "
        << format_double(s.shade_ratio) << ",\n     \"travel_time_s\": "
        << format_double(s.travel_time.value()) << ", \"solar_time_s\": "
        << format_double(s.solar_time.value()) << ", \"shaded_time_s\": "
        << format_double(s.shaded_time.value()) << ",\n     \"energy_in_wh\": "
        << format_double(s.energy_in.value()) << ", \"energy_out_wh\": "
        << format_double(s.energy_out.value())
        << ",\n     \"cum_travel_time_s\": "
        << format_double(s.cumulative.travel_time.value())
        << ", \"cum_shaded_time_s\": "
        << format_double(s.cumulative.shaded_time.value())
        << ", \"cum_energy_out_wh\": "
        << format_double(s.cumulative.energy_out.value())
        << ", \"cum_energy_in_wh\": "
        << format_double(s.cumulative_energy_in.value()) << "}";
  }
  out << (steps.empty() ? "" : "\n  ") << "],\n";
  out << "  \"totals\": {\"length_m\": "
      << format_double(totals.total_length.value()) << ", \"travel_time_s\": "
      << format_double(totals.travel_time.value()) << ", \"solar_time_s\": "
      << format_double(totals.solar_time.value()) << ", \"shaded_time_s\": "
      << format_double(totals.shaded_time.value()) << ", \"energy_in_wh\": "
      << format_double(totals.energy_in.value()) << ", \"energy_out_wh\": "
      << format_double(totals.energy_out.value()) << "}\n}\n";
  return out.str();
}

std::string RouteLedger::to_csv() const {
  std::ostringstream out;
  out << "seq,edge,from,to,entry,slot,length_m,speed_kmh,shade_ratio,"
         "travel_time_s,solar_time_s,shaded_time_s,energy_in_wh,"
         "energy_out_wh,cum_travel_time_s,cum_shaded_time_s,"
         "cum_energy_out_wh,cum_energy_in_wh\n";
  char row[512];
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const ExplainStep& s = steps[i];
    std::snprintf(row, sizeof row,
                  "%zu,%u,%u,%u,%s,%d,%.3f,%.3f,%.6f,%.6f,%.6f,%.6f,%.6f,"
                  "%.6f,%.6f,%.6f,%.6f,%.6f\n",
                  i, s.edge, s.from, s.to, s.entry.to_string().c_str(),
                  s.slot, s.length.value(), to_kmh(s.speed), s.shade_ratio,
                  s.travel_time.value(), s.solar_time.value(),
                  s.shaded_time.value(), s.energy_in.value(),
                  s.energy_out.value(), s.cumulative.travel_time.value(),
                  s.cumulative.shaded_time.value(),
                  s.cumulative.energy_out.value(),
                  s.cumulative_energy_in.value());
    out << row;
  }
  return out.str();
}

RouteExplainer::RouteExplainer(WorldPtr world, std::size_t vehicle)
    : world_(std::move(world)), vehicle_(vehicle) {
  if (!world_) throw InvalidArgument("RouteExplainer: null world");
  static_cast<void>(world_->vehicle(vehicle_));  // validates the index
}

RouteLedger RouteExplainer::explain(const roadnet::Path& path,
                                    TimeOfDay departure,
                                    PricingMode pricing) const {
  RouteLedger ledger;
  ledger.departure = departure;
  ledger.steps.reserve(path.size());
  const solar::SolarInputMap& map = world_->solar_map();
  const ev::ConsumptionModel& vehicle = world_->vehicle(vehicle_);
  const auto& graph = map.graph();

  Criteria cumulative;
  WattHours cumulative_in{0.0};
  for (const roadnet::EdgeId e : path.edges) {
    // The entry clock mirrors Algorithm 1: the label entering this edge
    // carries the cumulative travel time, and the search prices the
    // edge at departure advanced by it — not an iteratively advanced
    // clock — so the ledger reproduces the criteria vector bit for bit.
    const TimeOfDay entry = departure.advanced_by(cumulative.travel_time);
    // Replay the pricing mode too: a SlotQuantized route was costed at
    // the slot start, so the ledger must price there as well or the
    // conservation sums drift by the within-slot difference.
    const TimeOfDay priced_at = pricing_time(entry, pricing);
    const solar::EdgeSolar es = map.evaluate(e, priced_at);
    const auto& edge = graph.edge(e);
    const WattHours out = vehicle.consumption(edge.length, es.speed);

    ExplainStep step;
    step.edge = e;
    step.from = edge.from;
    step.to = edge.to;
    step.entry = entry;
    step.slot = entry.slot_index();
    step.length = edge.length;
    step.speed = es.speed;
    step.shade_ratio = es.shade_ratio;
    step.travel_time = es.travel_time;
    step.solar_time = es.solar_time;
    step.shaded_time = es.shaded_time;
    step.energy_in = es.energy_in;
    step.energy_out = out;

    // evaluate() and price_edges() (which edge_criteria, the exact
    // search and the slot-cache fill all use) share evaluate_at_speed,
    // and the consumption is taken at the speed evaluate() priced with,
    // so this is the search's edge price bit for bit; summed with
    // Criteria::operator+= in route order, the conservation check holds
    // exactly, not just within tolerance.
    cumulative += Criteria{es.travel_time, es.shaded_time, out};
    cumulative_in += es.energy_in;
    step.cumulative = cumulative;
    step.cumulative_energy_in = cumulative_in;
    ledger.steps.push_back(step);

    ledger.totals.total_length += edge.length;
    ledger.totals.travel_time += es.travel_time;
    ledger.totals.solar_time += es.solar_time;
    ledger.totals.shaded_time += es.shaded_time;
    ledger.totals.energy_in += es.energy_in;
    ledger.totals.energy_out += out;
  }
  return ledger;
}

}  // namespace sunchase::core
